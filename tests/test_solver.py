"""ITP radius solver and family sweeps."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import cli
from bohrlab.cli import BOUNDS
from bohrlab.extremals import sharpness_a_grid
from bohrlab.functionals import DEFAULT_AREA_WEIGHT, bohr_total, harmonic_total, sharp_harmonic_radius
from bohrlab.series import DiskDomain
from bohrlab.solver import (SMALLEST_TOL, UPPER_LIMIT, RadiusResult, a_to_one_limit, bohr_radius_of_function,
                            family_infimum_radius)

from oracles import (bisection_radius, constant, family_infimum_reference, harmonic_member, member, member_radius_root,
                     member_series, stack_of, stacked_bound, zero)


def majorant_bound(a, gamma=0.0, order=2048):
    """The member's majorant at a float radius, as the evaluator's one-row value."""
    p = member(a, gamma, order)
    return lambda r: bohr_total(p, np.array([r]))


def test_unconstrained_small_constant():
    p = constant(0.5)
    res = bohr_radius_of_function(lambda r: bohr_total(p, np.array([r])), 1e-10)
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT


def test_unconstrained_result_brackets_the_rest_of_the_disk():
    # the bound never reaches one on [0, UPPER_LIMIT]: the radius lies anywhere in [UPPER_LIMIT, 1)
    p = constant(0.5)
    res = bohr_radius_of_function(lambda r: bohr_total(p, np.array([r])), 1e-10)
    assert res.bracket == (UPPER_LIMIT, 1.0)
    assert res.tol == 1.0 - UPPER_LIMIT
    bound_for = lambda a: majorant_bound(a, 0.5)
    family = [0.3, 0.4]
    res = family_infimum_radius(stacked_bound(bound_for, family), family, 0.5, 1e-10)
    assert res.status == "unconstrained" and res.radius == UPPER_LIMIT
    assert res.bracket == (UPPER_LIMIT, 1.0)
    assert res.tol == 1.0 - UPPER_LIMIT
    # one constrained member makes the family constrained, with the bracket of its solve
    family = family + [0.9]
    res = family_infimum_radius(stacked_bound(bound_for, family), family, 0.5, tol=1e-10)
    alone = bohr_radius_of_function(bound_for(0.9), tol=1e-10)
    assert res.status == "constrained" and res.tol == 1e-10
    assert res.bracket == (alone.radius, alone.radius + alone.tol)


def test_no_radius_when_already_violated():
    p = constant(1.2)
    res = bohr_radius_of_function(lambda r: bohr_total(p, np.array([r])), 1e-10)
    assert res.status == "no_radius"
    assert math.isnan(res.radius)


def test_plateau_tie_break_returns_supremum_end():
    # constant exactly one: the bound is identically 1, never above
    p = constant(1.0)
    res = bohr_radius_of_function(lambda r: bohr_total(p, np.array([r])), 1e-10)
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT
    # synthetic plateau that eventually exceeds one: converge to its end
    bound = lambda r: 1.0 if r <= 0.4 else 1.0 + (r - 0.4)
    res = bohr_radius_of_function(bound, tol=1e-10)
    assert abs(res.radius - 0.4) <= 1e-9


def test_near_extremal_member_radius():
    res = bohr_radius_of_function(majorant_bound(1.0 - 2.0**-10), 1e-10)
    assert res.status == "constrained"
    assert abs(res.radius - 1.0 / 3.0) < 1e-2

    res = bohr_radius_of_function(majorant_bound(1.0 - 2.0**-10, 0.5), 1e-10)
    assert abs(res.radius - 3.0 / 7.0) < 1e-2


def test_bisection_postconditions_and_iteration_bound():
    tol = 1e-10
    bound_fn = majorant_bound(0.9)
    res = bohr_radius_of_function(bound_fn, tol=tol)
    lo, hi = res.bracket
    assert lo <= res.radius <= hi
    assert hi - lo <= tol
    assert bound_fn(max(res.radius - tol, 0.0)).padded() <= 1.0
    assert bound_fn(res.radius + tol).padded() > 1.0
    assert res.iterations <= math.ceil(math.log2(1.0 / tol)) + 2


def test_solver_requires_positive_tolerance():
    with pytest.raises(ValueError):
        bohr_radius_of_function(lambda r: r, tol=0.0)


@pytest.mark.parametrize("tol", [1e-320, 5e-324, 0.5 * SMALLEST_TOL, math.nan])
def test_solver_rejects_a_tolerance_below_the_smallest(tol):
    # these overflowed the step budget: OverflowError at 1e-320
    p = member(0.9, 0.5)
    with pytest.raises(ValueError, match=r"at least 2\^-1024"):
        bohr_radius_of_function(lambda r: bohr_total(p, np.array([r])), tol=tol)


@pytest.mark.parametrize("tol", [SMALLEST_TOL, 1e-308, 2.0**-1022])
def test_solver_terminates_down_to_the_smallest_tolerance(tol):
    assert SMALLEST_TOL == 2.0**-1024
    padded = majorant_bound(0.9, 0.5)
    res = bohr_radius_of_function(padded, tol=tol)
    lo, hi = res.bracket
    assert res.status == "constrained" and padded(lo).padded() <= 1.0 < padded(hi).padded()
    assert res.iterations <= math.ceil(math.log2(UPPER_LIMIT / tol)) + 1


def test_family_classical_radius():
    family = sharpness_a_grid()
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family, 0.0, tol=1e-10)
    assert abs(res.radius - 1.0 / 3.0) < 1e-3
    assert res.witness["a"] >= 1.0 - 2.0**-13
    assert res.diagnostics == ()


def test_family_witness_violates_just_past_radius():
    family = sharpness_a_grid()[:12]
    res = family_infimum_radius(stacked_bound(lambda a: majorant_bound(a, 0.25), family), family, 0.25, tol=1e-10)
    bound_fn = majorant_bound(**res.witness)
    assert bound_fn(res.radius + 2.0 * res.tol).padded() > 1.0


def test_family_harmonic_corollary_case():
    family = sharpness_a_grid()

    def bound_for(a):
        h, g = harmonic_member(a, 0.25, 1.0)
        return lambda r: harmonic_total(h, g, np.array([r]))

    res = family_infimum_radius(stacked_bound(bound_for, family), family, 0.25, tol=1e-10)
    assert abs(res.radius - 1.25 / 5.25) < 1e-3
    assert abs(res.radius - sharp_harmonic_radius(0.25, 1.0)) < 1e-3


def test_single_element_family_degenerates():
    single = family_infimum_radius(stacked_bound(majorant_bound, [0.9]), [0.9], 0.0, tol=1e-10)
    alone = bohr_radius_of_function(majorant_bound(0.9), tol=1e-10)
    assert abs(single.radius - alone.radius) < 1e-12
    assert single.witness == {"a": 0.9, "gamma": 0.0}


def test_family_propagates_no_radius():
    def bound_for(a):
        return lambda r: 2.0  # always violated

    res = family_infimum_radius(stacked_bound(bound_for, [0.5]), [0.5], 0.2, tol=1e-6)
    assert res.status == "no_radius"
    assert res.witness == {"a": 0.5, "gamma": 0.2}


def test_family_monotonicity_diagnostic():
    # artificial bound whose radius grows with a: flagged, not fatal
    def bound_for(a):
        return lambda r: r / a

    family = [0.3, 0.6]
    res = family_infimum_radius(stacked_bound(bound_for, family), family, 0.0, tol=1e-8)
    assert any("nonincreasing" in d for d in res.diagnostics)
    assert abs(res.radius - 0.3) < 1e-6


def test_family_empty_rejected():
    with pytest.raises(ValueError):
        family_infimum_radius(stacked_bound(majorant_bound, []), [], 0.0, 1e-10)


def test_result_serialization():
    res = family_infimum_radius(stacked_bound(majorant_bound, [0.9]), [0.9], 0.0, 1e-10)
    data = json.loads(json.dumps(dataclasses.asdict(res)))
    assert set(data) == {"radius", "bracket", "tol", "iterations", "witness", "status", "diagnostics", "members"}
    assert data["witness"] == {"a": 0.9, "gamma": 0.0}
    assert data["bracket"] == list(res.bracket) and data["radius"] == res.radius


def test_family_result_keeps_every_member():
    family = sharpness_a_grid()[:10].tolist()
    bound_for = lambda a: majorant_bound(a, 0.25)
    res = family_infimum_radius(stacked_bound(bound_for, family), family, 0.25, tol=1e-10)
    members = dataclasses.asdict(res)["members"]
    assert [m["a"] for m in members] == family
    assert min(m["radius"] for m in members) == res.radius
    assert sum(m["iterations"] for m in members) == res.iterations
    for m, a in zip(members, family):
        assert m["radius"] == bohr_radius_of_function(bound_for(a), 1e-10).radius


def _theorem_bound(theorem, gamma, k, a):
    """padded bound of one member of the theorem's extremal family, as ``radius`` builds it."""
    bound = BOUNDS[theorem]
    values = {"gamma": gamma, "k": k, "lambda": DiskDomain(gamma).coefficient_ratio_sup, "K": DEFAULT_AREA_WEIGHT}
    values.update(bound.pinned)
    gamma, x = values["gamma"], values.get(bound.param)
    if bound.harmonic:
        series = harmonic_member(a, gamma, values["k"])
    else:
        series = member(a, gamma)
    return lambda r: bound.total(series, np.array([r]), gamma, x).padded()[0]


@settings(max_examples=60)
@given(
    theorem=st.sampled_from(sorted(BOUNDS)),
    gamma=st.floats(0.0, 0.9),
    k=st.floats(0.0, 1.0),
    a=st.floats(0.01, 1.0 - 2.0**-14),
)
def test_itp_brackets_the_bisection_radius_on_every_theorem(theorem, gamma, k, a):
    tol = 1e-10
    padded = _theorem_bound(theorem, gamma, k, a)
    res = bohr_radius_of_function(padded, tol=tol)
    if res.status == "unconstrained":  # small a: the bound stays below one
        assert padded(UPPER_LIMIT) <= 1.0
        return
    lo, hi = res.bracket
    assert padded(lo) <= 1.0 < padded(hi)
    assert hi - lo <= tol
    assert res.radius == lo
    assert abs(res.radius - bisection_radius(padded, tol)[0]) <= tol


def _adversaries(c):
    """Bounds crossing one at c in the worst ways for interpolation."""
    return {
        "step": lambda r: 0.5 if r <= c else 1.5,
        "lopsided-step": lambda r: 1.0 - 1e-300 if r <= c else 1e300,
        "plateau": lambda r: 1.0 if r <= c else 1.0 + (r - c),
        "jump": lambda r: r / c if r <= c else 2.0 + r,
        "nan-past": lambda r: 0.9 * r / c if r <= c else math.nan,
        # interpolation hits the crossing, then keeps landing on the bracket end
        "linear": lambda r: r / c,
        # explodes as r -> 1, as theorem 2's bound does through r/(1 - r)
        "pole": lambda r: (r / c) * (1.0 - c) / (1.0 - r),
        "norm-like": lambda r: 0.5 + 0.5 * (r / c) ** 2 * (1.0 - c) / (1.0 - r),
    }


def _solve_probing_inside(bound, tol):
    """Solve, asserting that every step probes strictly inside the current bracket."""
    probes = []
    res = bohr_radius_of_function(lambda r: probes.append(r) or bound(r), tol=tol)
    lo, hi = 0.0, UPPER_LIMIT
    for r in probes[2:]:  # after the two end probes, one per step
        assert lo < r < hi
        lo, hi = (r, hi) if bound(r) <= 1.0 else (lo, r)
    assert (lo, hi) == res.bracket and len(probes) - 2 == res.iterations
    return res


@settings(max_examples=40)
@given(
    c=st.floats(1e-3, UPPER_LIMIT - 1e-3),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_itp_worst_case_stays_within_one_step_of_bisection(c, tol):
    cap = math.ceil(math.log2(UPPER_LIMIT / tol)) + 1
    for name, bound in _adversaries(c).items():
        res = _solve_probing_inside(bound, tol)
        lo, hi = res.bracket
        assert res.iterations <= cap, name
        assert bound(lo) <= 1.0 and not bound(hi) <= 1.0, name
        assert hi - lo <= tol and abs(lo - c) <= tol, name


def test_itp_probes_a_target_past_an_exact_one():
    # the first interior probe is the midpoint m, where the bound is exactly one
    m, tol = 0.5 * UPPER_LIMIT, 1e-10
    probes = []
    res = bohr_radius_of_function(lambda r: probes.append(r) or (0.0 if r < m else 1.0 if r == m else 2.0), tol)
    target = tol - 8.0 * math.ulp(UPPER_LIMIT)
    assert probes == [0.0, UPPER_LIMIT, m, m + target]
    assert res.bracket == (m, m + target) and res.iterations == 2


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("c", [0.05, 1.0 / 3.0, 0.5, 0.9, 0.99])
def test_itp_closes_on_a_pole_and_a_moebius_bound_within_eight_steps(c, tol):
    # regula falsi barely moved on the pole: at c = 0.9 it took 35 steps at tol 1e-10 and 45 at 1e-13
    bounds = {
        "pole": _adversaries(c)["pole"],
        "moebius": lambda r: (0.3 + r) / (0.3 + c) * (1.0 - 0.5 * c) / (1.0 - 0.5 * r),
    }
    for name, bound in bounds.items():
        res = _solve_probing_inside(bound, tol)
        lo, hi = res.bracket
        assert bound(lo) <= 1.0 < bound(hi) and hi - lo <= tol and abs(lo - c) <= tol, name
        assert res.iterations <= 8, (name, res.iterations)


_ROUND_CASES = [
    (theorem, gamma, k)
    for theorem, bound in BOUNDS.items()
    for gamma in (0.0, 0.25, 0.42, 0.5, 0.85, 0.89, 0.9)
    if gamma == 0.0 or "gamma" not in bound.pinned
    for k in ((0.35, 1.0) if theorem == "4" else (None,))
]


@pytest.mark.parametrize("theorem,gamma,k", _ROUND_CASES)
def test_every_family_solve_takes_at_most_twelve_rounds(tmp_path, theorem, gamma, k):
    # a round is one evaluator call on the whole family: the two end probes and
    # one per step of the slowest member; theorem 2 took 37 at gamma >= 0.42
    out = tmp_path / "r.json"
    argv = ["radius", "--theorem", theorem, "--gamma", repr(gamma), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ([] if k is None else ["--k", repr(k)])) == 0
    members = json.loads(out.read_text())["result"]["members"]
    assert max(m["iterations"] for m in members) + 2 <= 12


def test_itp_members_do_not_creep_past_an_exact_one(tmp_path):
    # members with a >= 1 - 2^-11 hit a padded bound of exactly one and took 31-34 steps
    out = tmp_path / "r.json"
    assert cli.main(["radius", "--theorem", "corollary", "--gamma", "0.453022", "--out", str(out)]) == 0
    members = json.loads(out.read_text())["result"]["members"]
    assert max(m["iterations"] for m in members) <= 13


@dataclasses.dataclass(frozen=True)
class _Constant:
    """A family member at ``a`` that is the constant c: no_radius when c > 1, else unconstrained."""

    a: float
    c: float


def _theorem_family(theorem, gamma, k, members, order=2048):
    """(a values, gamma, stacked bound, per-member bound_for) as ``radius`` builds
    them; each member is an ``a`` of the theorem's extremal family or a ``_Constant``."""
    bound = BOUNDS[theorem]
    values = {"gamma": gamma, "k": k, "lambda": DiskDomain(gamma).coefficient_ratio_sup, "K": DEFAULT_AREA_WEIGHT}
    values.update(bound.pinned)
    gamma, x = values["gamma"], values.get(bound.param)
    a_values, series = [], []
    for x_or_constant in members:
        if isinstance(x_or_constant, _Constant):
            h = constant(x_or_constant.c, order)
            a_values.append(x_or_constant.a)
            series.append((h, zero(order)) if bound.harmonic else h)
        else:
            a_values.append(x_or_constant)
            series.append(member_series(bound, x_or_constant, gamma, values["k"], order))
    stack = tuple(map(stack_of, zip(*series))) if bound.harmonic else stack_of(series)
    by_a = dict(zip(a_values, series))  # members at one a have one series
    return (a_values, gamma, lambda r: bound.total(stack, r, gamma, x),
            lambda a: (lambda r: bound.total(by_a[a], np.array([r]), gamma, x)))


@settings(max_examples=40)
@given(
    theorem=st.sampled_from(sorted(BOUNDS)),
    gamma=st.floats(0.0, 0.9),
    k=st.floats(0.0, 1.0),
    a_values=st.lists(st.floats(0.01, 1.0 - 2.0**-14), min_size=1, max_size=6),
    tol=st.sampled_from([1e-6, 1e-10, 1e-20]),
)
def test_lockstep_family_equals_the_sequential_reference(theorem, gamma, k, a_values, tol):
    family, gamma, bound, bound_for = _theorem_family(theorem, gamma, k, a_values)
    assert family_infimum_radius(bound, family, gamma, tol) == family_infimum_reference(bound_for, family, gamma, tol)


_KINDS = {
    "constrained": [float(a) for a in sharpness_a_grid()],
    "unconstrained": [_Constant(0.2, 0.5), _Constant(0.4, 1.0)],
    "no_radius": [_Constant(0.2, 1.2), _Constant(0.4, 1.5)],
    "mixed": [0.3, _Constant(0.35, 0.5), 0.9, 0.99, _Constant(0.5, 1.0)],
    "mixed-no-radius": [0.9, _Constant(0.5, 0.5), _Constant(0.7, 1.2), 0.99],
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("theorem", sorted(BOUNDS))
def test_lockstep_family_equals_the_sequential_reference_on_every_status(theorem, kind):
    family, gamma, bound, bound_for = _theorem_family(theorem, 0.3, 0.6, _KINDS[kind])
    res = family_infimum_radius(bound, family, gamma, 1e-10)
    assert res == family_infimum_reference(bound_for, family, gamma, 1e-10)
    assert res.status == {"mixed": "constrained", "mixed-no-radius": "no_radius"}.get(kind, kind)


def test_lockstep_calls_the_bound_once_per_round():
    family, gamma, bound, _ = _theorem_family("B", 0.5, 1.0, _KINDS["constrained"])
    calls = []
    res = family_infimum_radius(lambda r: calls.append(r.copy()) or bound(r), family, gamma, 1e-10)
    assert len(calls) == 2 + max(m["iterations"] for m in res.members)
    assert all(r.shape == (len(family),) for r in calls)
    # once a member has finished, it is fed its final lo
    for i, m in enumerate(res.members):
        assert all(r[i] == m["radius"] for r in calls[2 + m["iterations"]:])


# Rounding allowance, in units of u/|d total/dr| at the root (u = 2^-53): near
# one each computed total errs by a few u, so a member's certified bracket can
# sit that far past the exact root.  Over 2,800 members of 200 random runs the
# largest overshoot was 9.2 units.
_ROUNDING_UNITS = 32


@settings(max_examples=30)
@given(
    theorem=st.sampled_from(cli.SWEEP_THEOREMS),
    gamma=st.floats(0.0, 0.95),
    k=st.floats(0.0, 1.0),
    lam=st.floats(0.1, 1.0),
    weight=st.floats(0.0, DEFAULT_AREA_WEIGHT),
)
def test_every_member_radius_is_the_root_of_its_members_total(theorem, gamma, k, lam, weight):
    flag, x = {"1": ("--K", weight), "3": ("--lambda", lam), "4": ("--k", k)}.get(theorem, (None, None))
    tol = 1e-10
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "r.json"
        argv = ["radius", "--theorem", theorem, "--gamma", repr(gamma), "--tol", repr(tol), "--out", str(out)]
        cli.main(argv + ([flag, repr(x)] if flag else []))
        members = json.loads(out.read_text())["result"]["members"]
    assert len(members) == 4
    for m in members:
        root, slope = member_radius_root(theorem, m["a"], gamma, x)
        allowance = _ROUNDING_UNITS * 2.0**-53 / slope
        assert root - tol - allowance <= m["radius"] <= root + allowance, (m, root)


def test_every_member_closes_in_at_most_seven_steps_above_gamma_nine_tenths(tmp_path):
    # theorem 2's a = 0.5 member fell back to bisection here (37 rounds); the four members
    # nearest a = 1 take 6-7 steps on every theorem
    out = tmp_path / "r.json"
    for theorem, extra in (("B", []), ("1", []), ("2", []), ("3", []), ("4", ["--k", "0.35"]), ("corollary", [])):
        for gamma in np.linspace(0.9, 0.99, 91).tolist():
            argv = ["radius", "--theorem", theorem, "--gamma", repr(gamma), "--out", str(out), *extra]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            members = json.loads(out.read_text())["result"]["members"]
            assert max(m["iterations"] for m in members) <= 7, (theorem, gamma)


def _grid_result(radii, tol=1e-10, a_values=None):
    """A family result whose members are the last len(radii) grid members with these radii."""
    a_values = sharpness_a_grid()[-len(radii):].tolist() if a_values is None else a_values
    members = tuple(dict(a=a, radius=r, iterations=0) for a, r in zip(a_values, radii))
    best = min(radii)
    return RadiusResult(best, (best, best + tol), tol, 0, None, "constrained", members=members)


def _smooth_radii(limit=0.4, c1=0.3, c2=-2.0, c3=5.0):
    return [limit + c1 * u + c2 * u**2 + c3 * u**3 for u in (1.0 - sharpness_a_grid()[-4:]).tolist()]


def test_limit_cancels_the_first_two_orders_and_bounds_its_error():
    radii = _smooth_radii()
    res = a_to_one_limit(_grid_result(radii), 0.0)
    assert res.notes == ()
    r = radii
    two_step = [(8 * r[2] - 6 * r[1] + r[0]) / 3, (8 * r[3] - 6 * r[2] + r[1]) / 3]
    assert res.value == two_step[1]
    assert res.error == abs(two_step[1] - two_step[0]) + 5e-10
    # the O(u^3) remainder at u = 2^-14 is far inside the error
    assert abs(res.value - 0.4) < 1e-11 < res.error
    # the floor covers the members' own rounding at tolerances below it
    assert a_to_one_limit(_grid_result(radii, tol=1e-14), 0.0).error == abs(two_step[1] - two_step[0]) + 5e-12


def test_limit_notes_a_grid_outside_the_asymptotic_regime():
    # one-step gaps of a smooth r(u) shrink fourfold; noise of 1e-6 on one member breaks that
    radii = _smooth_radii()
    radii[1] += 1e-6
    res = a_to_one_limit(_grid_result(radii), 0.0)
    assert len(res.notes) == 1 and "not in the asymptotic regime" in res.notes[0]
    assert res.error is not None
    # equal radii leave no gap to take the ratio of
    assert a_to_one_limit(_grid_result([0.4] * 4), 0.0).notes == (
        "the one-step gaps shrink inf-fold, not about 4-fold: the grid is not in the asymptotic regime, "
        "so limit_error may understate the error",)


@pytest.mark.parametrize("case", ["a-at-most-gamma", "unconstrained", "three-members"])
def test_limit_needs_four_constrained_sharpness_witnesses(case):
    radii, gamma = _smooth_radii(), 0.0
    if case == "a-at-most-gamma":
        gamma = float(sharpness_a_grid()[-3])  # a_12 = gamma is no witness
    elif case == "unconstrained":
        radii[0] = UPPER_LIMIT
    else:
        radii = radii[1:]
    result = _grid_result(radii)
    res = a_to_one_limit(result, gamma)
    assert (res.value, res.error) == (result.radius, None)
    assert res.notes == ("fewer than 4 members are constrained sharpness witnesses (a > gamma): "
                         "the radius is the grid minimum, with no limit error",)


def test_limit_rejects_witnesses_whose_distance_to_one_does_not_halve():
    with pytest.raises(ValueError, match="must halve"):
        a_to_one_limit(_grid_result(_smooth_radii(), a_values=[0.9, 0.95, 0.975, 0.99]), 0.0)


def test_member_root_expansion_in_u_and_its_two_step_cancellation():
    # the closed-form roots of theorem B's member and of the harmonic member with
    # dilatation k: |A0| + (1 + k) C x/(1 - x) = 1 at x = q r, for a > gamma
    u, g, k = sp.symbols("u gamma k", positive=True)
    a = 1 - u
    root_of = lambda kk: (1 + g) * (1 - a * g) / ((1 - g) * ((1 + kk) * (1 + a) + a * (1 + g)))
    taylor = lambda expr, n: sp.cancel(sp.diff(expr, u, n).subs(u, 0))
    for kk, limit in ((0, (1 + g) / (3 + g)), (k, (1 + g) / (3 + 2 * k + g))):
        r = root_of(kk)
        assert taylor(r - limit, 0) == 0
        if kk == 0:
            assert taylor(r, 1) == sp.cancel(2 * (1 + g) ** 2 / ((1 - g) * (3 + g) ** 2))
        two_step = (8 * r.subs(u, u / 4) - 6 * r.subs(u, u / 2) + r) / 3
        # no u^0, u^1 or u^2 term, and the remainder is O(u^3), no better
        assert [taylor(two_step - limit, n) for n in range(3)] == [0, 0, 0]
        assert taylor(two_step, 3) != 0
    # the closed forms are the members' roots
    for theorem, kk in (("B", 0.0), ("4", 0.35)):
        a_num, g_num = 1.0 - 2.0**-12, 0.3
        exact = float(root_of(kk).subs({u: 1 - sp.Rational(a_num), g: sp.Rational(g_num)}))
        assert abs(exact - member_radius_root(theorem, a_num, g_num, kk if theorem == "4" else None)[0]) < 1e-14


def _family_limit(theorem, gamma, k):
    """The a -> 1 limit of the family radius: the harmonic radius for theorem 4 and
    the corollary (k = 1), (1 + gamma)/(3 + gamma) for every other theorem."""
    k = {"4": k, "corollary": 1.0}.get(theorem, 0.0)
    return (1.0 + gamma) / (3.0 + 2.0 * k + gamma)


@settings(max_examples=60, deadline=None)
@given(
    theorem=st.sampled_from(sorted(BOUNDS)),
    gamma=st.floats(0.0, 0.99),
    k=st.floats(0.0, 1.0),
    weight=st.floats(0.0, DEFAULT_AREA_WEIGHT),
    lam=st.floats(0.1, 2.0),
    log_tol=st.floats(-14.0, -4.0),
)
def test_computed_radius_is_the_family_limit_within_its_error(theorem, gamma, k, weight, lam, log_tol):
    gamma = 0.0 if theorem == "A" else gamma  # the pinned values: any other is a usage error
    k = 1.0 if theorem == "corollary" else k
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "r.json"
        argv = ["radius", "--theorem", theorem, "--tol", repr(10.0**log_tol), "--out", str(out),
                "--k", repr(k), "--K", repr(weight), "--lambda", repr(lam)]
        code = cli.main(argv + ([] if theorem == "A" else ["--gamma", repr(gamma)]))
        payload = json.loads(out.read_text())
    assert code == 0
    assert abs(payload["computed_radius"] - _family_limit(theorem, gamma, k)) <= payload["limit_error"]
