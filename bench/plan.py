"""Seeded workload plans: every input the program under test receives.

A plan is plain JSON-able data (grid shapes, step counts, arrival
times, tenants, state seeds) generated from ``--seed`` alone, so the
same seed always yields the same inputs and this module needs neither
numpy nor ``repro``.  The runners turn a plan into library calls.

Run length is a fixed amount of work per second of ``--seconds``
(steps or jobs), never a time budget, so two commits measured with the
same settings do identical work.  The per-second rates below were
calibrated at the commit that introduced the benchmark, on a 2-core
Intel Xeon (Sapphire Rapids, KVM guest, 105 MiB L3), so that a run
measures for about ``--seconds`` seconds there.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("table1_fused", "table1_inplace_f32", "service_open", "service_burst")
DEFAULT_SEED = 0
#: Never used while writing a change: a claimed gain must also hold here.
HOLDOUT_SEED = 8191

#: Timed steps per second of ``--seconds`` for the Table-I workloads.
TABLE1_STEPS_PER_SECOND = {"table1_fused": 75, "table1_inplace_f32": 100}
#: Untimed warmup steps before the first timed Table-I step.
TABLE1_WARMUP_STEPS = 5
#: Steps of the differential check against ``solver="sequential"``.
DIFFERENTIAL_STEPS = 20

#: Offered rate of ``service_open`` in jobs/s: a quarter of the open
#: mix's capacity measured as a burst (6.3 jobs/s).  At half capacity
#: (3.1 jobs/s) p50 and p90 latency varied by 19% between seeds even
#: with jittered arrivals; at a quarter, by 6% and 9%.
OPEN_RATE = 1.6
#: ``service_burst`` jobs per second of ``--seconds``, in batches of 8
#: (one of each 8 is cancelled): 24 jobs at the default 20 s.
BURST_JOBS_PER_SECOND = 1.2

#: Latency limit per workload in ms: twice the p90 job latency measured
#: at the commit that introduced the benchmark, rounded up to 500 ms for
#: the service workloads and to 10 ms for a Table-I step.  The burst
#: limit holds for the default run length only, since a burst's
#: latencies grow with its size.
SLO_MS = {
    "table1_fused": 30.0,
    "table1_inplace_f32": 20.0,
    "service_open": 1000.0,
    "service_burst": 31000.0,
}

#: Every ``SERVICE_CHECK_EVERY``-th completed job is re-run solo.
SERVICE_CHECK_EVERY = 4
MAX_BATCH = 8
OPEN_TENANTS = (("gold", 2.0), ("silver", 1.0), ("bronze", 1.0))
BURST_TENANTS = (("alpha", 1.0), ("beta", 1.0))
SHEET_NODES = 6
OPEN_STEPS = (10, 20, 40)
BURST_SHAPE = 16
BURST_STEPS = 40
WARMUP_JOB_STEPS = 10


def make_plan(workload: str, seed: int, seconds: float) -> dict:
    """The complete, seeded input of one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload.startswith("table1"):
        plan = _table1_plan(workload, rng, seconds)
    elif workload == "service_open":
        plan = _open_plan(rng, seconds)
    else:
        plan = _burst_plan(rng, seconds)
    plan.update(workload=workload, seed=seed, seconds=seconds, slo_ms=SLO_MS[workload])
    return plan


def plan_digest(plan: dict) -> str:
    """Short content hash of a plan (seed changes show up here)."""
    text = json.dumps(plan, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def scaled(plan: dict, fraction: float) -> dict:
    """``plan`` cut to ``fraction`` of its work (the traced pass uses ¼).

    Table-I plans keep a fraction of the steps; service plans keep the
    first jobs of the schedule, so arrival times and the mix stay as
    generated.
    """
    out = dict(plan)
    if "steps" in plan:
        out["steps"] = max(1, round(plan["steps"] * fraction))
    else:
        keep = max(MAX_BATCH, round(len(plan["jobs"]) * fraction))
        out["jobs"] = plan["jobs"][:keep]
    return out


# ----------------------------------------------------------------------
def _table1_plan(workload: str, rng: random.Random, seconds: float) -> dict:
    fused = workload == "table1_fused"
    return {
        # scaled_profiling_config(scale=2): 62x32x32 grid, 26x26 sheet.
        "scale": 2,
        "solver": "fused" if fused else "inplace",
        "precision": "float64" if fused else "float32",
        "warmup": TABLE1_WARMUP_STEPS,
        "steps": max(1, round(TABLE1_STEPS_PER_SECOND[workload] * seconds)),
        "windows": max(1, round(seconds)),
        "check_steps": DIFFERENTIAL_STEPS,
        "state_seed": rng.randrange(2**31),
    }


def _exact_split(n: int, shares: list[float]) -> list[int]:
    """Integer counts summing to ``n`` in the given proportions."""
    counts = [math.floor(n * s) for s in shares]
    for i in sorted(range(len(shares)), key=lambda i: n * shares[i] - counts[i], reverse=True):
        if sum(counts) == n:
            break
        counts[i] += 1
    return counts


def _open_plan(rng: random.Random, seconds: float) -> dict:
    """Open loop at ``OPEN_RATE`` jobs/s with jittered arrivals.

    Job ``k`` is due at a seeded uniform point of the middle half of the
    ``k``-th interval of length ``1 / OPEN_RATE``, so consecutive jobs
    arrive 0.5 to 1.5 intervals apart, independent of the service.  The
    service returns results only when a run of back-to-back jobs ends,
    which makes latency depend on how arrivals bunch.  At 3.1 jobs/s,
    p90 latency varied 2x between seeds with Poisson arrivals; at
    1.6 jobs/s its quartile spread over 10 seeds of a 20 s run was 18%
    with jitter over the whole interval and 9% with this schedule.  The
    seed also reorders a mix whose proportions are exact (75% 12³, half
    with a sheet, steps spread evenly, tenants 2:1:1), so offered work
    does not vary.
    """
    n = max(MAX_BATCH, round(OPEN_RATE * seconds))
    n16 = _exact_split(n, [0.75, 0.25])[1]
    jobs = []
    for shape, count in ((12, n - n16), (16, n16)):
        for k in range(count):
            jobs.append(
                {
                    "shape": shape,
                    "sheet": k % 2 == 0,
                    "steps": OPEN_STEPS[(k // 2) % len(OPEN_STEPS)],
                }
            )
    tenant_counts = _exact_split(n, [w / 4.0 for _, w in OPEN_TENANTS])
    tenants = [name for (name, _), c in zip(OPEN_TENANTS, tenant_counts) for _ in range(c)]
    rng.shuffle(jobs)
    rng.shuffle(tenants)
    for index, job in enumerate(jobs):
        job.update(
            tenant=tenants[index],
            due=(index + 0.25 + 0.5 * rng.random()) / OPEN_RATE,
            state_seed=rng.randrange(2**31),
            cancel=False,
        )
    return {
        "rate": OPEN_RATE,
        "tenants": [list(t) for t in OPEN_TENANTS],
        "checkpoint_every": 0,
        "warmup_jobs": [
            {"shape": 12, "sheet": True, "steps": WARMUP_JOB_STEPS},
            {"shape": 16, "sheet": True, "steps": WARMUP_JOB_STEPS},
        ],
        "jobs": jobs,
    }


def _burst_plan(rng: random.Random, seconds: float) -> dict:
    """Jobs of one compatibility group submitted at t=0, 1 in 8 cancelled."""
    n = MAX_BATCH * max(1, round(BURST_JOBS_PER_SECOND * seconds / MAX_BATCH))
    tenants = [BURST_TENANTS[i % 2][0] for i in range(n)]
    rng.shuffle(tenants)
    cancelled = set(rng.sample(range(n), n // MAX_BATCH))
    jobs = [
        {
            "shape": BURST_SHAPE,
            "sheet": False,
            "steps": BURST_STEPS,
            "tenant": tenants[i],
            "due": 0.0,
            "state_seed": rng.randrange(2**31),
            "cancel": i in cancelled,
        }
        for i in range(n)
    ]
    return {
        "tenants": [list(t) for t in BURST_TENANTS],
        "checkpoint_every": 10,
        "warmup_jobs": [{"shape": BURST_SHAPE, "sheet": False, "steps": WARMUP_JOB_STEPS}],
        "jobs": jobs,
    }
