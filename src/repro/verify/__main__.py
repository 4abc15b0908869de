"""``python -m repro.verify`` — the physics verification gate.

Runs, in order:

1. **Golden baselines** — the committed checksummed digests under
   ``tests/golden/`` still match the current code.
2. **Differential oracle sweep** — for each generated config (seeded,
   reproducible), every parallel variant is compared step-locked
   against the sequential reference; any divergence is shrunk to a
   minimal failing case before being reported.
3. **Perturbation self-test** — a run with tau deliberately off by
   1e-3 *must* be caught by the oracle, with the divergent step, field,
   and cube identified; a verification harness that cannot detect a
   known-bad kernel is worse than none.

Exit status 0 = all gates passed.  Wired as ``make verify-physics``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.variants import REFERENCE, VARIANTS as TABLE
from repro.verify.generate import generate_cases, shrink_case
from repro.verify.golden import check_baselines, write_baselines
from repro.verify.oracle import DifferentialOracle, compare_variants

#: Variants checked against the sequential reference: every other
#: entry of :data:`repro.variants.VARIANTS`.
VARIANTS = tuple(spec.name for spec in TABLE if spec.name != REFERENCE)


def _run_golden(regen: bool, golden_dir: str | None) -> int:
    if regen:
        for path in write_baselines(golden_dir):
            print(f"  wrote {path}")
        return 0
    failures = check_baselines(golden_dir)
    for failure in failures:
        print(f"  FAIL {failure}")
    if not failures:
        print("  golden baselines match")
    return len(failures)


def _oracle_failure(case, variant):
    """Re-run one (case, variant) pair; the shrink predicate."""
    return compare_variants(
        case.config(),
        "sequential",
        variant,
        case.steps,
        state_seed=case.state_seed,
    )


def _run_oracle_sweep(seed: int, count: int) -> int:
    cases = generate_cases(seed, count)
    failures = 0
    for i, case in enumerate(cases):
        print(f"  case {i}: {case.describe()}")
        for variant in VARIANTS:
            divergence = _oracle_failure(case, variant)
            if divergence is None:
                print(f"    {variant:<12} ok")
                continue
            failures += 1
            print(f"    {variant:<12} FAIL {divergence}")
            minimal = shrink_case(
                case, lambda c: _oracle_failure(c, variant) is not None
            )
            if minimal != case:
                print(f"    minimal failing case: {minimal.describe()}")
                print(f"    minimal divergence:   {_oracle_failure(minimal, variant)}")
    return failures


def _run_selftest(seed: int) -> int:
    """The oracle must catch a tau perturbed by 1e-3 (cube-localized)."""
    case = generate_cases(seed, 1)[0]
    config = case.config()
    perturbed = replace(config, tau=config.effective_tau + 1e-3, viscosity=None)
    oracle = DifferentialOracle(
        config,
        variant_a="sequential",
        variant_b="cube",
        state_seed=case.state_seed,
        config_b=perturbed,
    )
    divergence = oracle.run(max(case.steps, 2))
    if divergence is None:
        print("  FAIL: a tau perturbation of 1e-3 was NOT detected")
        return 1
    located = divergence.cube is not None
    print(f"  caught injected perturbation: {divergence}")
    if not located:
        print("  FAIL: divergence in a cube variant lacks cube localization")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="LBM-IB physics verification gate",
    )
    parser.add_argument("--cases", type=int, default=3, help="generated configs to sweep")
    parser.add_argument("--seed", type=int, default=20150715, help="generator seed")
    parser.add_argument("--golden-dir", default=None, help="golden baseline directory")
    parser.add_argument(
        "--regen-golden",
        action="store_true",
        help="regenerate the golden baselines instead of checking them",
    )
    parser.add_argument(
        "--skip-selftest",
        action="store_true",
        help="skip the deliberate-perturbation self-test",
    )
    args = parser.parse_args(argv)

    failures = 0
    print("[1/3] golden regression baselines")
    failures += _run_golden(args.regen_golden, args.golden_dir)
    if args.regen_golden:
        return 0

    print(f"[2/3] differential oracle sweep ({args.cases} generated configs)")
    failures += _run_oracle_sweep(args.seed, args.cases)

    if args.skip_selftest:
        print("[3/3] perturbation self-test skipped")
    else:
        print("[3/3] perturbation self-test (tau off by 1e-3)")
        failures += _run_selftest(args.seed)

    if failures:
        print(f"verify-physics: {failures} failure(s)")
        return 1
    print("verify-physics: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
