"""Every name a bohrlab module exports in ``__all__`` resolves, and the
package exports nothing only tests need.

Layer tracing wraps a module's functions by ``__all__`` and skips a name
that does not resolve, so a stale entry would silently drop a function
from the trace.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab
from bohrlab import cli, conjecture, extremals, functionals, series, solver, verify
from bohrlab.series import DiskDomain
from bohrlab.verify import BlaschkeProduct

SRC = Path(bohrlab.__file__).resolve().parent.parent
MODULES = sorted(f"bohrlab.{m.name}" for m in pkgutil.iter_modules(bohrlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_package_keeps_no_test_only_series_helpers():
    # the Cauchy product and the termwise derivative live in tests/oracles.py
    assert not any(hasattr(bohrlab, name) for name in ("mul", "differentiate"))


def test_the_package_keeps_no_name_that_no_command_reaches():
    # tests evaluate a series with numpy's polyval, draw check samples with oracles.blaschke_samples
    # and read the norm sum from functionals._sum(p, "norm", r); mobius_family_coeffs and
    # harmonic_extremal write every family stack; a SeriesStack (one series: a one-row stack) is the
    # one series type
    removed = {
        bohrlab: ("sweep_conjecture", "run_default_checks", "norm_f0", "PowerSeries", "TailBound"),
        series: ("PowerSeries", "TailBound"),
        functionals: ("norm_f0", "PowerSeries", "_like_radius"),
        verify: ("run_default_checks",),
        conjecture: ("sweep_conjecture",),
        extremals: ("family_stack",),
        BlaschkeProduct: ("deriv",),
        DiskDomain: ("center", "radius"),
    }
    # vars, not hasattr: every class has a __call__, its type's
    assert [(owner.__name__, name) for owner, names in removed.items() for name in names
            if name in vars(owner)] == []


# Parameters that no command sets, each now the fixed value it always had: a check's sample
# grid, the solver's bracket end UPPER_LIMIT, numeric_taylor's 8 samples per order, the
# witness's 1e-6 weight bump and the 14-member dyadic grid
_FIXED = {
    verify.check_coefficient_bounds: ("gammas", "n_max"),
    verify.check_ruscheweyh: ("alphas", "n_max"),
    verify.check_dilatation_coefficients: ("k", "order"),
    verify.check_recentred_consistency: ("n_samples", "order"),
    verify.check_recentred_slack_certificate: ("gammas", "order"),
    solver.bohr_radius_of_function: ("upper",),
    solver._solve_together: ("upper",),
    solver._itp: ("upper",),
    series.numeric_taylor: ("samples",),
    conjecture.witness_violates: ("bump",),
    extremals.sharpness_a_grid: ("j_max",),
}


@pytest.mark.parametrize("function", _FIXED, ids=lambda f: f"{f.__module__.split('.')[-1]}.{f.__name__}")
def test_parameters_no_command_sets_stay_fixed(function):
    assert set(_FIXED[function]) & set(inspect.signature(function).parameters) == set()


# Run values whose one default is the CLI flag's (every src/ caller passes them), and the
# defaults no call reached: each takes no default in the library
_NO_DEFAULT = {
    verify.check_recentred_consistency: ("seed",),
    verify.check_family_deficit_identity: ("n_samples", "seed", "order", "tol"),
    verify.default_checks: ("seed", "fast"),
    conjecture.estimate_constant: ("grid", "augment_samples", "seed"),
    series.numeric_taylor: ("rho",),
    solver.bohr_radius_of_function: ("tol",),
    solver.family_infimum_radius: ("tol",),
    solver.RadiusResult: ("witness", "status"),
    cli._Number: ("ok", "rule"),
}


@pytest.mark.parametrize("function", _NO_DEFAULT, ids=lambda f: f"{f.__module__.split('.')[-1]}.{f.__name__}")
def test_run_values_take_no_library_default(function):
    parameters = inspect.signature(function).parameters
    assert [name for name in _NO_DEFAULT[function] if parameters[name].default is not inspect.Parameter.empty] == []


def _settable_values(source: str) -> int:
    """Parameters with a default (lambdas' included) plus dataclass fields with a default."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_values_in_the_package():
    # the figure ROADMAP aim 2 tracks; a new default, field default or option raises it
    assert sum(_settable_values(path.read_text()) for path in (SRC / "bohrlab").glob("*.py")) == 19


def test_cli_import_loads_no_test_dependency():
    # the oracles' arbitrary-precision and property-test libraries stay out of src/, and
    # numpy.polynomial too: tests evaluate series with its polyval, and no command needs it
    code = ("import sys, bohrlab.cli; "
            "print(sorted({'sympy', 'mpmath', 'hypothesis', 'numpy.polynomial'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
