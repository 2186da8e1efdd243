"""ITP radius solver and family sweeps."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import cli
from bohrlab.cli import BOUNDS
from bohrlab.extremals import HarmonicExtremalParams, MobiusFamilyParams, harmonic_extremal, mobius_family_coeffs, sharpness_a_grid
from bohrlab.functionals import DEFAULT_AREA_WEIGHT, SeriesStack, bohr_total, harmonic_total, sharp_harmonic_radius
from bohrlab.series import DiskDomain, PowerSeries
from bohrlab.solver import UPPER_LIMIT, bohr_radius_of_function, family_infimum_radius

from oracles import bisection_radius, family_infimum_reference, stacked_bound


def majorant_bound(params, order=2048):
    p = mobius_family_coeffs(params, order)
    return lambda r: bohr_total(p, r)


def test_unconstrained_small_constant():
    p = PowerSeries.constant(0.5)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT


def test_unconstrained_result_brackets_the_rest_of_the_disk():
    # the bound never reaches one on [0, UPPER_LIMIT]: the radius lies anywhere in [UPPER_LIMIT, 1)
    p = PowerSeries.constant(0.5)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.bracket == (UPPER_LIMIT, 1.0)
    assert res.tol == 1.0 - UPPER_LIMIT
    family = [MobiusFamilyParams(0.3, 0.5), MobiusFamilyParams(0.4, 0.5)]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family)
    assert res.status == "unconstrained" and res.radius == UPPER_LIMIT
    assert res.bracket == (UPPER_LIMIT, 1.0)
    assert res.tol == 1.0 - UPPER_LIMIT
    # one constrained member makes the family constrained, with the bracket of its solve
    witness = MobiusFamilyParams(0.9, 0.5)
    family = family + [witness]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family, tol=1e-10)
    alone = bohr_radius_of_function(majorant_bound(witness), tol=1e-10)
    assert res.status == "constrained" and res.tol == 1e-10
    assert res.bracket == (alone.radius, alone.radius + alone.tol)


def test_no_radius_when_already_violated():
    p = PowerSeries.constant(1.2)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "no_radius"
    assert math.isnan(res.radius)


def test_plateau_tie_break_returns_supremum_end():
    # constant exactly one: the bound is identically 1, never above
    p = PowerSeries.constant(1.0)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT
    # synthetic plateau that eventually exceeds one: converge to its end
    bound = lambda r: 1.0 if r <= 0.4 else 1.0 + (r - 0.4)
    res = bohr_radius_of_function(bound, tol=1e-10)
    assert abs(res.radius - 0.4) <= 1e-9


def test_near_extremal_member_radius():
    res = bohr_radius_of_function(majorant_bound(MobiusFamilyParams(1.0 - 2.0**-10, 0.0)))
    assert res.status == "constrained"
    assert abs(res.radius - 1.0 / 3.0) < 1e-2

    res = bohr_radius_of_function(majorant_bound(MobiusFamilyParams(1.0 - 2.0**-10, 0.5)))
    assert abs(res.radius - 3.0 / 7.0) < 1e-2


def test_bisection_postconditions_and_iteration_bound():
    tol = 1e-10
    bound_fn = majorant_bound(MobiusFamilyParams(0.9, 0.0))
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


def test_family_classical_radius():
    family = [MobiusFamilyParams(float(a), 0.0) for a in sharpness_a_grid(14)]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family, tol=1e-10)
    assert abs(res.radius - 1.0 / 3.0) < 1e-3
    assert res.witness.a >= 1.0 - 2.0**-13
    assert res.diagnostics == ()


def test_family_witness_violates_just_past_radius():
    family = [MobiusFamilyParams(float(a), 0.25) for a in sharpness_a_grid(12)]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family, tol=1e-10)
    bound_fn = majorant_bound(res.witness)
    assert bound_fn(res.radius + 2.0 * res.tol).padded() > 1.0


def test_family_harmonic_corollary_case():
    family = [HarmonicExtremalParams(float(a), 0.25, k=1.0, lambda_mix=1.0) for a in sharpness_a_grid(14)]

    def bound_for(params):
        h, g = harmonic_extremal(params)
        return lambda r: harmonic_total(h, g, r)

    res = family_infimum_radius(stacked_bound(bound_for, family), family, tol=1e-10)
    assert abs(res.radius - 1.25 / 5.25) < 1e-3
    assert abs(res.radius - sharp_harmonic_radius(0.25, 1.0)) < 1e-3


def test_single_element_family_degenerates():
    params = MobiusFamilyParams(0.9, 0.0)
    single = family_infimum_radius(stacked_bound(majorant_bound, [params]), [params], tol=1e-10)
    alone = bohr_radius_of_function(majorant_bound(params), tol=1e-10)
    assert abs(single.radius - alone.radius) < 1e-12
    assert single.witness == params


def test_family_propagates_no_radius():
    class Big:
        a = 0.5

    def bound_for(params):
        return lambda r: 2.0  # always violated

    family = [Big()]
    res = family_infimum_radius(stacked_bound(bound_for, family), family, tol=1e-6)
    assert res.status == "no_radius"


def test_family_monotonicity_diagnostic():
    # artificial bound whose radius grows with a: flagged, not fatal
    def bound_for(params):
        return lambda r: r / params.a

    family = [MobiusFamilyParams(0.3, 0.0), MobiusFamilyParams(0.6, 0.0)]
    res = family_infimum_radius(stacked_bound(bound_for, family), family, tol=1e-8)
    assert any("nonincreasing" in d for d in res.diagnostics)
    assert abs(res.radius - 0.3) < 1e-6


def test_family_empty_rejected():
    with pytest.raises(ValueError):
        family_infimum_radius(stacked_bound(majorant_bound, []), [])


def test_result_serialization():
    family = [MobiusFamilyParams(0.9, 0.0)]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family)
    data = json.loads(json.dumps(dataclasses.asdict(res)))
    assert set(data) == {"radius", "bracket", "tol", "iterations", "witness", "status", "diagnostics", "members"}
    assert data["witness"] == {"a": 0.9, "gamma": 0.0, "sharpness_witness": False}
    assert data["bracket"] == list(res.bracket) and data["radius"] == res.radius


def test_family_result_keeps_every_member():
    family = [MobiusFamilyParams(float(a), 0.25) for a in sharpness_a_grid(10)]
    res = family_infimum_radius(stacked_bound(majorant_bound, family), family, tol=1e-10)
    members = dataclasses.asdict(res)["members"]
    assert [m["a"] for m in members] == [p.a for p in family]
    assert min(m["radius"] for m in members) == res.radius
    assert sum(m["iterations"] for m in members) == res.iterations
    for m, params in zip(members, family):
        assert m["radius"] == bohr_radius_of_function(majorant_bound(params)).radius


def _theorem_bound(theorem, gamma, k, a):
    """padded bound of one member of the theorem's extremal family, as ``radius`` builds it."""
    bound = BOUNDS[theorem]
    values = {"gamma": gamma, "k": k, "lambda": DiskDomain(gamma).coefficient_ratio_sup, "K": DEFAULT_AREA_WEIGHT}
    values.update(bound.pinned)
    gamma, x = values["gamma"], values.get(bound.param)
    if bound.harmonic:
        series = harmonic_extremal(HarmonicExtremalParams(a, gamma, values["k"], 1.0))
    else:
        series = mobius_family_coeffs(MobiusFamilyParams(a, gamma))
    return lambda r: bound.total(series, r, gamma, x).padded()


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


@dataclasses.dataclass(frozen=True)
class _Constant:
    """A family member that is the constant c: no_radius when c > 1, else unconstrained."""

    a: float
    gamma: float
    c: float


def _theorem_family(theorem, gamma, k, members, order=2048):
    """(family, stacked bound, per-member bound_for) as ``radius`` builds them; each
    member is an ``a`` of the theorem's extremal family or a ``_Constant``."""
    bound = BOUNDS[theorem]
    values = {"gamma": gamma, "k": k, "lambda": DiskDomain(gamma).coefficient_ratio_sup, "K": DEFAULT_AREA_WEIGHT}
    values.update(bound.pinned)
    gamma, x = values["gamma"], values.get(bound.param)
    family, series = [], []
    for member in members:
        if isinstance(member, _Constant):
            h = PowerSeries.constant(member.c, order)
            family.append(member)
            series.append((h, PowerSeries.zero(order)) if bound.harmonic else h)
        else:
            family += cli._family(bound, [member], gamma, values["k"])
            series.append(cli._series(bound, family[-1], order))
    stack = tuple(map(SeriesStack, zip(*series))) if bound.harmonic else SeriesStack(series)
    by_member = dict(zip(map(id, family), series))
    return (family, lambda r: bound.total(stack, r, gamma, x),
            lambda params: (lambda r: bound.total(by_member[id(params)], r, gamma, x)))


@settings(max_examples=40)
@given(
    theorem=st.sampled_from(sorted(BOUNDS)),
    gamma=st.floats(0.0, 0.9),
    k=st.floats(0.0, 1.0),
    a_values=st.lists(st.floats(0.01, 1.0 - 2.0**-14), min_size=1, max_size=6),
    tol=st.sampled_from([1e-6, 1e-10, 1e-20]),
)
def test_lockstep_family_equals_the_sequential_reference(theorem, gamma, k, a_values, tol):
    family, bound, bound_for = _theorem_family(theorem, gamma, k, a_values)
    assert family_infimum_radius(bound, family, tol) == family_infimum_reference(bound_for, family, tol)


_KINDS = {
    "constrained": [float(a) for a in sharpness_a_grid(14)],
    "unconstrained": [_Constant(0.2, 0.0, 0.5), _Constant(0.4, 0.0, 1.0)],
    "no_radius": [_Constant(0.2, 0.0, 1.2), _Constant(0.4, 0.0, 1.5)],
    "mixed": [0.3, _Constant(0.35, 0.0, 0.5), 0.9, 0.99, _Constant(0.5, 0.0, 1.0)],
    "mixed-no-radius": [0.9, _Constant(0.5, 0.0, 0.5), _Constant(0.7, 0.0, 1.2), 0.99],
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("theorem", sorted(BOUNDS))
def test_lockstep_family_equals_the_sequential_reference_on_every_status(theorem, kind):
    family, bound, bound_for = _theorem_family(theorem, 0.3, 0.6, _KINDS[kind])
    res = family_infimum_radius(bound, family, 1e-10)
    assert res == family_infimum_reference(bound_for, family, 1e-10)
    assert res.status == {"mixed": "constrained", "mixed-no-radius": "no_radius"}.get(kind, kind)


def test_lockstep_calls_the_bound_once_per_round():
    family, bound, _ = _theorem_family("B", 0.5, 1.0, _KINDS["constrained"])
    calls = []
    res = family_infimum_radius(lambda r: calls.append(r.copy()) or bound(r), family, 1e-10)
    assert len(calls) == 2 + max(m["iterations"] for m in res.members)
    assert all(r.shape == (len(family),) for r in calls)
    # once a member has finished, it is fed its final lo
    for i, m in enumerate(res.members):
        assert all(r[i] == m["radius"] for r in calls[2 + m["iterations"]:])
