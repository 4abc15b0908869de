"""The variant table is the one place a solver variant is described.

Every variant either honours a precision policy — one step runs and the
gathered fluid carries that policy — or refuses it with a
:class:`ConfigurationError` naming the variants that do.  Every list of
variants elsewhere (config validation, the oracle's thread clamp, the
golden maps, the verify CLI, the tuner) equals its table-derived value,
so adding a variant touches only the table and the variant's module.
"""

from dataclasses import replace

import pytest

import repro.verify.__main__ as verify_cli
from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.core.backend import PRECISIONS
from repro.errors import ConfigurationError
from repro.tuning.space import ORACLE_SAFE_VARIANTS, TuningCandidate
from repro.variants import REFERENCE, VARIANTS, supporting, variant
from repro.verify.golden import GOLDEN_PRECISIONS, GOLDEN_VARIANTS
from repro.verify.oracle import variant_config

NAMES = [spec.name for spec in VARIANTS]


def _base(precision="float64", **overrides):
    return SimulationConfig(
        fluid_shape=(8, 8, 8),
        cube_size=4,
        num_threads=2,
        precision=precision,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
        **overrides,
    )


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", NAMES)
def test_variant_honours_or_refuses_precision(name, precision):
    if precision in variant(name).precisions:
        with Simulation(variant_config(_base(precision), name)) as sim:
            sim.run(1)
            fluid = sim.fluid
            assert fluid.precision.name == precision
            assert fluid.df.dtype == fluid.precision.storage
    else:
        with pytest.raises(ConfigurationError) as info:
            variant_config(_base(precision), name)
        message = str(info.value)
        assert repr(name) in message and repr(precision) in message
        assert ", ".join(supporting(precision)) in message


def test_every_variant_honours_float64():
    assert supporting("float64") == tuple(NAMES)


def test_config_accepts_exactly_the_table():
    for name in NAMES:
        assert variant_config(_base(), name).solver == name
    with pytest.raises(ConfigurationError, match="unknown solver"):
        _base(solver="no_such_variant")


def test_cube_divisibility_follows_the_table():
    for spec in VARIANTS:
        config = replace(_base(), fluid_shape=(12, 8, 8), num_threads=1)
        if spec.cube_blocked:
            with pytest.raises(ConfigurationError, match="divisible"):
                replace(config, solver=spec.name, cube_size=8)
        else:
            replace(config, solver=spec.name, cube_size=8)


def test_variant_config_clamps_threads_by_the_table():
    base = replace(_base(), num_threads=64)
    for spec in VARIANTS:
        assert variant_config(base, spec.name).num_threads == max(1, spec.threads(base))


def test_state_bytes_follow_the_layout():
    for spec in VARIANTS:
        config = replace(
            _base(), solver=spec.name, structure=StructureConfig(kind="none")
        )
        per_node = config.estimated_state_bytes() // 8**3
        assert per_node == spec.layout.values_per_node * 8


def test_golden_maps_follow_the_table():
    pinned = [spec for spec in VARIANTS if spec.golden_precisions]
    assert GOLDEN_VARIANTS == {
        ("" if spec.name == REFERENCE else f"_{spec.name}"): spec.name
        for spec in pinned
    }
    for suffix, name in GOLDEN_VARIANTS.items():
        reduced = tuple(p for p in variant(name).golden_precisions if p != "float64")
        assert GOLDEN_PRECISIONS.get(suffix, ()) == reduced


def test_verify_cli_checks_every_other_variant():
    assert list(verify_cli.VARIANTS) == [n for n in NAMES if n != REFERENCE]


def test_tuner_searches_the_oracle_safe_variants():
    assert list(ORACLE_SAFE_VARIANTS) == [s.name for s in VARIANTS if s.oracle_safe]
    for name in ORACLE_SAFE_VARIANTS:
        spec = variant(name)
        for precision in PRECISIONS:
            kwargs = dict(variant=name, precision=precision, cube_size=4)
            if precision in spec.precisions:
                TuningCandidate(**kwargs)
            else:
                with pytest.raises(ConfigurationError, match="does not support"):
                    TuningCandidate(**kwargs)
