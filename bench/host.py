"""Host memory-bandwidth probe: numpy copy GB/s at two working sets.

The per-layer metric ``core.lbm.bw_ratio`` divides the lattice kernels'
computed bandwidth by what this host can copy at the same working set,
so the probe runs in the same process as the workload:

* ``llc``: source + destination together as large as the workload's
  lattice, which must fit the last-level cache (the Table-I lattice,
  2 x 9.6 MB, fits a 105 MiB L3);
* ``dram``: each array at least four times the last-level cache, so
  the copy streams from and to memory.

A copy of ``n`` bytes moves ``2n`` bytes (read + write); GB/s counts
both.  The best of several repetitions is reported.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

_CACHE_DIR = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
#: Used when sysfs does not describe the caches.
_FALLBACK_LLC_BYTES = 32 << 20


def llc_bytes() -> tuple[int, bool]:
    """``(size of the last-level cache, whether sysfs reported it)``."""
    best_level, best_size = -1, 0
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        size = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        if level > best_level:
            best_level, best_size = level, size
    if best_size:
        return best_size, True
    return _FALLBACK_LLC_BYTES, False


def copy_gbs(array_bytes: int, repeats: int) -> float:
    """Best-of-``repeats`` numpy copy bandwidth for two arrays of ``array_bytes``."""
    src = np.ones(max(1, array_bytes // 8))
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2 * src.nbytes / best / 1e9


def probe(lattice_bytes: int, dram_cap_bytes: int | None = None) -> dict:
    """Both bandwidths plus the sizes they were measured at.

    ``dram_cap_bytes`` shrinks the memory-resident arrays (the
    benchmark's self-test uses it; the value is then not a DRAM
    reading, which the returned sizes make visible).
    """
    llc, from_sysfs = llc_bytes()
    llc_array = max(1 << 16, lattice_bytes // 2)
    dram_array = 4 * llc if dram_cap_bytes is None else min(4 * llc, dram_cap_bytes)
    llc_gbs = copy_gbs(llc_array, repeats=50)
    dram_gbs = copy_gbs(dram_array, repeats=3)
    return {
        "llc_bytes": llc,
        "llc_from_sysfs": from_sysfs,
        "lattice_bytes": lattice_bytes,
        "lattice_fits_llc": lattice_bytes <= llc,
        "llc_array_bytes": llc_array,
        "dram_array_bytes": dram_array,
        "copy_gbs_llc": llc_gbs,
        "copy_gbs_dram": dram_gbs,
    }
