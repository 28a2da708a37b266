"""What the span tracer of ``perfbench/tracing.py`` reads of the library.

The tracer wraps library functions by name and reads some of their
arguments by position, so a renamed function or a moved parameter would
break traced benchmark runs, not these sources.  The tracer is loaded by
path and left as it is.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import pytest

import sparsegrids as sg

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"sparsegrids.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


# (module, function, the positional parameters Tracer.summary reads, from the first)
@pytest.mark.parametrize("layer, name, params", [
    ("gridio", "save_grid", ["path"]),
    ("evalkit", "interpolate", [None, None, None, "points"]),
    ("evalkit", "evaluate_on_grid", [None, "reduced"]),
    ("grid", "build_tensor_grid", ["idx", "families", "level_map"]),
])
def test_summary_arguments_stay_in_place(layer, name, params):
    fn = getattr(importlib.import_module(f"sparsegrids.{layer}"), name)
    got = [p for p in inspect.signature(fn).parameters.values()
           if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)][:len(params)]
    for want, param in zip(params, got, strict=True):
        if want is not None:
            assert param.name == want, f"{layer}.{name}"


def test_sparse_grid_tensors_is_a_replaceable_tuple():
    # the self-test's mutant drops a tensor with dataclasses.replace(grid, tensors=...)
    field = {f.name: f for f in dataclasses.fields(sg.SparseGrid)}["tensors"]
    assert field.init
    grid = sg.quick_preset(2, 2)[0]
    assert isinstance(grid.tensors, tuple)
    kept = dataclasses.replace(grid, tensors=grid.tensors[:-1])
    assert kept.tensors == grid.tensors[:-1]
