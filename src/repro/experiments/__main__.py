"""Command-line reproduction report: ``python -m repro.experiments``.

Prints every table and figure of the paper's evaluation section in one
pass (the same drivers the benchmark suite uses), so the whole
reproduction can be eyeballed without pytest.

Options::

    python -m repro.experiments             # everything
    python -m repro.experiments table1 fig8 # a subset
    python -m repro.experiments --list      # available artifact names
"""

from __future__ import annotations

import argparse
import sys


def _table1() -> str:
    from repro.experiments.table1 import render_table1, run_table1

    rows, meta = run_table1(scale=4, num_steps=5)
    return render_table1(rows, meta)


def _table2() -> str:
    from repro.experiments.table2 import render_table2, run_table2

    return render_table2(run_table2())


def _table3() -> str:
    from repro.experiments.table34 import render_table3

    return render_table3()


def _table4() -> str:
    from repro.experiments.table34 import render_table4

    return render_table4()


def _fig5() -> str:
    from repro.experiments.fig5 import render_fig5, run_fig5

    return render_fig5(run_fig5())


def _fig8() -> str:
    from repro.experiments.fig8 import render_fig8, run_fig8

    return render_fig8(run_fig8())


def _tune() -> str:
    from repro.experiments.bench_tune import render_bench_tune, run_bench_tune

    return render_bench_tune(
        run_bench_tune(scale=4, steps=2, warmup=1, repeats=2, budget_seconds=5.0)
    )


#: Artifact name -> renderer.
ARTIFACTS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig5": _fig5,
    "fig8": _fig8,
    "tune": _tune,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="ARTIFACT",
        help=f"subset to print (default: all of {', '.join(ARTIFACTS)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list artifact names and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(ARTIFACTS))
        return 0

    names = args.artifacts or list(ARTIFACTS)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artifact(s): {', '.join(unknown)}")

    for i, name in enumerate(names):
        if i:
            print()
        print(ARTIFACTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
