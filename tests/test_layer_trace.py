"""The benchmark's layer tracer still sees what it counts.

The tracer in ``perfbench/layer_trace.py`` wraps each layer module's
``__all__`` functions and counts from their arguments and return values
through hooks named ``_count_<layer>_<function>``.  A hook whose function
was renamed or dropped from ``__all__`` is never called, and a changed
signature can leave it reading the wrong argument: either way a counter
silently reads zero.  These tests pin the hook names and the counts of a
few traced runs.
"""

import contextlib
import importlib
import importlib.util
import io
import inspect
from pathlib import Path

import pytest

from bohrlab import cli

_SPEC = importlib.util.spec_from_file_location(
    "layer_trace", Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py")
layer_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_trace)

_HOOKS = sorted(name[len("_count_"):] for name in vars(layer_trace.LayerTrace) if name.startswith("_count_"))
# hooks chosen by name pattern (every evaluator, every check), not by one function
_PATTERN_HOOKS = {"evaluator", "check"}


def _layer_and_function(hook: str) -> tuple[str, str]:
    layer = next(layer for layer in layer_trace.LAYERS if hook.startswith(layer + "_"))
    return layer, hook[len(layer) + 1:]


@pytest.mark.parametrize("hook", [h for h in _HOOKS if h not in _PATTERN_HOOKS])
def test_every_count_hook_names_an_exported_function_of_its_layer(hook):
    layer, function = _layer_and_function(hook)
    module = importlib.import_module(f"{layer_trace.PACKAGE}.{layer}")
    assert function in module.__all__
    assert inspect.isfunction(getattr(module, function))


def test_the_hooks_cover_the_solver_and_the_family_builders():
    assert {"solver_bohr_radius_of_function", "solver_family_infimum_radius",
            "extremals_mobius_family_coeffs", "extremals_harmonic_extremal"} <= set(_HOOKS)


def test_one_harmonic_member_solve_counts_both_series_and_one_solve():
    tracer = layer_trace.LayerTrace()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["radius", "--theorem", "4", "--gamma", "0.5", "--a", "0.9"]) == 0
    m = tracer.metrics(1)
    # h through the nested mobius_family_coeffs call, g in harmonic_extremal: 2049 coefficients each
    assert m["extremals.series_built"][0] == 2
    assert m["extremals.coeffs_built"][0] == 4098
    assert m["solver.solves"][0] == 1


@pytest.mark.parametrize("argv,series,coeffs", [
    # the four members a_11..a_14 at the full order 2048: one stack, or h and g
    (["radius", "--theorem", "B", "--gamma", "0.5"], 1, 4 * 2049),
    (["radius", "--theorem", "4", "--gamma", "0.5"], 2, 8 * 2049),
    # the 14 members, their rows cut at 32 terms by the grid's largest radius
    (["sweep", "--theorem", "4", "--gammas", "0.3"], 2, 2 * 14 * 33),
])
def test_the_family_builds_are_counted(argv, series, coeffs):
    tracer = layer_trace.LayerTrace()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    m = tracer.metrics(1)
    assert m["extremals.series_built"][0] == series
    assert m["extremals.coeffs_built"][0] == coeffs
