"""Checkpoint / restore of a full simulation state (npz format).

Long FSI runs are expensive; checkpoints capture the fluid grid and the
immersed structure exactly (both distribution buffers, both velocity
fields, positions, forces) so a restored run continues bit-for-bit.

Checkpoints are crash-safe by construction:

* **Atomic writes** — the payload is written to ``path + ".tmp"`` and
  moved into place with :func:`os.replace`, so a process killed mid-write
  can only ever leave a stale-but-complete previous checkpoint (plus a
  harmless ``.tmp`` orphan), never a half-written file under the real
  name.
* **Payload checksum** — a SHA-256 digest over every stored array is
  saved alongside the data and verified by :func:`load_checkpoint`;
  silently corrupted bytes (bit rot, torn writes on non-POSIX stores)
  raise :class:`~repro.errors.CheckpointError` instead of loading as
  garbage physics.

A job's checkpoints form one :class:`CheckpointTrail`, the recovery
path of both :class:`~repro.resilience.runner.ResilientRunner` and
:class:`~repro.batch.scheduler.BatchScheduler`.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib

import numpy as np

from repro.core.ib.fiber import FiberSheet, ImmersedStructure
from repro.core.lbm.fields import FluidGrid
from repro.errors import CheckpointError, ConfigurationError

__all__ = [
    "CheckpointTrail",
    "DEFAULT_KEEP_CHECKPOINTS",
    "checkpoint_window",
    "save_checkpoint",
    "load_checkpoint",
    "payload_checksum",
]

#: Default checkpoint-window size of a job's :class:`CheckpointTrail`.
DEFAULT_KEEP_CHECKPOINTS = 2

_FORMAT_VERSION = 1
_CHECKSUM_KEY = "checksum"


def payload_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 digest over every array (key, dtype, shape, bytes).

    Keys are visited in sorted order so the digest is independent of
    insertion order; the ``checksum`` entry itself is excluded.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _resolved(path: str | os.PathLike) -> str:
    # np.savez historically appends ".npz" to bare names; keep that
    # contract even though we write through a file object.
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    return final


def save_checkpoint(
    path: str | os.PathLike,
    fluid: FluidGrid,
    structure: ImmersedStructure | None = None,
    time_step: int = 0,
) -> None:
    """Atomically write the complete state to ``path`` (npz)."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(_FORMAT_VERSION),
        "time_step": np.array(time_step),
        "shape": np.array(fluid.shape),
        "tau": np.array(fluid.tau),
        "collision_operator": np.array(fluid.collision_operator),
        "precision": np.array(fluid.precision.name),
        "aa_phase": np.array(int(getattr(fluid, "aa_phase", 0))),
        "df": fluid.df,
        "density": fluid.density,
        "velocity": fluid.velocity,
        "velocity_shifted": fluid.velocity_shifted,
        "force": fluid.force,
        "num_sheets": np.array(0 if structure is None else len(structure.sheets)),
    }
    if fluid.df_new is not None:
        # Single-lattice (in-place AA) grids have no second buffer; the
        # entry is simply absent and load_checkpoint reseeds it.
        payload["df_new"] = fluid.df_new
    if structure is not None:
        for i, s in enumerate(structure.sheets):
            payload[f"sheet{i}_positions"] = s.positions
            payload[f"sheet{i}_anchors"] = s.anchors
            payload[f"sheet{i}_active"] = s.active
            payload[f"sheet{i}_tethered"] = s.tethered
            payload[f"sheet{i}_velocity"] = s.velocity
            payload[f"sheet{i}_bending"] = s.bending_force
            payload[f"sheet{i}_stretching"] = s.stretching_force
            payload[f"sheet{i}_elastic"] = s.elastic_force
            payload[f"sheet{i}_params"] = np.array(
                [
                    s.stretch_coefficient,
                    s.bend_coefficient,
                    s.rest_spacing_fiber,
                    s.rest_spacing_cross,
                    s.tether_coefficient,
                ]
            )
    payload[_CHECKSUM_KEY] = np.array(payload_checksum(payload))

    final = _resolved(path)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {final}: {exc}") from exc


def checkpoint_window(
    trail: list[tuple[str, int]], name: str, step: int, keep: int
) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """The keep-N rule: add ``(name, step)`` to an oldest-first window.

    A re-written step replaces its earlier entry.  Returns ``(kept,
    dropped)``: the newest ``keep`` entries and those that fell out.
    The live :class:`CheckpointTrail` unlinks the dropped files; a
    journal replay just forgets them.
    """
    trail = [entry for entry in trail if entry[1] != step]
    trail.append((name, step))
    return trail[-keep:], trail[:-keep]


class CheckpointTrail:
    """One job's rotating window of checkpoints inside ``workdir``.

    The caller writes each checkpoint to :meth:`path` itself, then calls
    :meth:`saved`.  The trail owns the rest: the file name
    (``<stem><step:08d>.npz``), the fault injector's
    ``after_checkpoint`` hook, the ``checkpoint_saved`` record (the
    basename, journaled *before* rotation deletes older files, so a
    replay always names the newest file on disk), the ``keep``-newest
    window and newest-loadable :meth:`restore`.  Every record goes
    through ``record(kind, step=..., **detail)`` and names ``job_id``.
    ``entries`` seeds the oldest-first ``(name, step)`` window from a
    replayed journal; names are relative to ``workdir``, so a workdir
    can be moved before it is restored from.
    """

    def __init__(
        self,
        workdir: str | os.PathLike,
        record,
        job_id: str,
        stem: str = "ckpt-",
        keep: int = DEFAULT_KEEP_CHECKPOINTS,
        fault_injector=None,
        entries: list[tuple[str, int]] = (),
    ) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep_checkpoints must be >= 1, got {keep}")
        self.workdir = os.fspath(workdir)
        self.job_id = job_id
        self.stem = stem
        self.keep = keep
        self.fault_injector = fault_injector
        self.entries = list(entries)
        self._record = record

    def path(self, step: int) -> str:
        """Where the checkpoint of ``step`` is written."""
        return os.path.join(self.workdir, f"{self.stem}{step:08d}.npz")

    def saved(self, step: int) -> None:
        """Account for the checkpoint just written to :meth:`path`."""
        path = self.path(step)
        if self.fault_injector is not None:
            # Gives truncate_checkpoint faults their shot at the file —
            # simulating a crash mid-write on a pre-atomic store.
            self.fault_injector.after_checkpoint(path, step)
        name = os.path.basename(path)
        self._record("checkpoint_saved", step=step, job=self.job_id, path=name)
        self.entries, dropped = checkpoint_window(self.entries, name, step, self.keep)
        for old, _step in dropped:
            self._unlink(old)

    def restore(
        self, fallback: str | None = None
    ) -> tuple[FluidGrid, ImmersedStructure | None, int] | None:
        """Newest loadable state, else the ``fallback`` file's at step 0.

        An unusable entry is journaled (``checkpoint_corrupt`` when it
        does not load, ``checkpoint_unstable`` when non-finite) and
        dropped with its file; the ``fallback`` is never deleted.
        """
        while self.entries:
            name, step = self.entries[-1]
            state = self._load(name, step)
            if state is not None:
                return state
            self.entries.pop()
            self._unlink(name)
        if fallback:
            state = self._load(fallback, 0)
            if state is not None:
                return state[0], state[1], 0
        return None

    def _load(self, name: str, step: int):
        try:
            fluid, structure, step = load_checkpoint(os.path.join(self.workdir, name))
        except CheckpointError as exc:
            self._record(
                "checkpoint_corrupt",
                step=step,
                job=self.job_id,
                path=name,
                error=str(exc),
            )
            return None
        if not (np.isfinite(fluid.density).all() and np.isfinite(fluid.df).all()):
            # Written before the divergence was detected (coarse probe
            # cadence): restarting from it would fail instantly.
            self._record("checkpoint_unstable", step=step, job=self.job_id, path=name)
            return None
        return fluid, structure, int(step)

    def _unlink(self, name: str) -> None:
        try:  # a fault or an earlier rotation may have removed it already
            os.unlink(os.path.join(self.workdir, name))
        except OSError:
            pass


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[FluidGrid, ImmersedStructure | None, int]:
    """Restore ``(fluid, structure, time_step)`` from a checkpoint file.

    Verifies the stored payload checksum before reconstructing any
    state; a truncated or bit-flipped file raises
    :class:`~repro.errors.CheckpointError` with the reason (never a
    grid of garbage numbers).
    """
    try:
        data = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc} "
            "(the file is missing, truncated, or not a checkpoint)"
        ) from exc
    try:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {version} unsupported (expected {_FORMAT_VERSION})"
            )
        arrays = {key: data[key] for key in data.files}
        if _CHECKSUM_KEY in arrays:
            stored = str(arrays[_CHECKSUM_KEY])
            actual = payload_checksum(arrays)
            if stored != actual:
                raise CheckpointError(
                    f"checkpoint {path} failed checksum verification "
                    f"(stored {stored[:12]}..., computed {actual[:12]}...): "
                    "the file was corrupted after writing; restore from an "
                    "earlier checkpoint"
                )
        operator = (
            str(arrays["collision_operator"])
            if "collision_operator" in arrays
            else "bgk"
        )
        if "precision" in arrays:
            precision = str(arrays["precision"])
        else:
            # Pre-policy checkpoints carry no precision entry; infer the
            # uniform policy matching the stored lattice dtype.
            precision = (
                "float32" if arrays["df"].dtype == np.float32 else "float64"
            )
        fluid = FluidGrid(
            tuple(int(n) for n in arrays["shape"]),
            tau=float(arrays["tau"]),
            collision_operator=operator,
            precision=precision,
        )
        fluid.df[...] = arrays["df"]
        if "df_new" in arrays:
            fluid.df_new[...] = arrays["df_new"]
        else:
            # Single-lattice checkpoint: seed the second buffer from the
            # (possibly AA-encoded) lattice; consumers that need the
            # natural layout decode via the aa_phase flag below.
            fluid.df_new[...] = arrays["df"]
        fluid.aa_phase = int(arrays["aa_phase"]) if "aa_phase" in arrays else 0
        fluid.density[...] = arrays["density"]
        fluid.velocity[...] = arrays["velocity"]
        fluid.velocity_shifted[...] = arrays["velocity_shifted"]
        fluid.force[...] = arrays["force"]

        num_sheets = int(arrays["num_sheets"])
        structure = None
        if num_sheets:
            sheets = []
            for i in range(num_sheets):
                params = arrays[f"sheet{i}_params"]
                sheet = FiberSheet(
                    arrays[f"sheet{i}_positions"],
                    stretch_coefficient=float(params[0]),
                    bend_coefficient=float(params[1]),
                    rest_spacing_fiber=float(params[2]),
                    rest_spacing_cross=float(params[3]),
                    active=arrays[f"sheet{i}_active"],
                    tethered=arrays[f"sheet{i}_tethered"],
                    tether_coefficient=float(params[4]),
                )
                sheet.anchors[...] = arrays[f"sheet{i}_anchors"]
                sheet.velocity[...] = arrays[f"sheet{i}_velocity"]
                sheet.bending_force[...] = arrays[f"sheet{i}_bending"]
                sheet.stretching_force[...] = arrays[f"sheet{i}_stretching"]
                sheet.elastic_force[...] = arrays[f"sheet{i}_elastic"]
                sheets.append(sheet)
            structure = ImmersedStructure(sheets)
        return fluid, structure, int(arrays["time_step"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} is missing field {exc}") from exc
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable past its header: {exc} "
            "(truncated or corrupted archive)"
        ) from exc
    finally:
        data.close()
