"""Constant explorer: admissibility floor, witness validity, determinism."""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab import functionals
from bohrlab.conjecture import (
    _ratio_grid,
    estimate_constant,
    non_monotonic_pairs,
    sweep_conjecture,
    window_edges,
    witness_violates,
    write_estimates_csv,
)
from bohrlab.extremals import MobiusFamilyParams, mobius_family_coeffs

from oracles import ratio_grid_reference

FLOOR = 8.0 / 9.0 - 1e-6


def test_single_gamma_estimate():
    est = estimate_constant(0.0)
    assert est.gamma == 0.0
    assert est.k_hat >= FLOOR
    assert 0.0 < est.witness_a < 1.0
    assert 0.0 < est.witness_r <= functionals.sharp_majorant_radius(0.0)
    assert len(est.grid_stats["levels"]) == est.refinements + 1


def test_endpoint_estimate_is_reported_near_sixteen_ninths():
    # exploratory: the gamma = 0 corner of the family sits near 16/9; we
    # report the deviation but only assert the proven floor
    est = estimate_constant(0.0)
    print(f"gamma=0 estimate {est.k_hat:.6f}, 16/9 = {16/9:.6f}, deviation {abs(est.k_hat - 16/9):.3e}")
    assert est.k_hat >= FLOOR


def test_sweep_floor_and_witness_validity():
    estimates = sweep_conjecture([0.0, 0.25, 0.5, 0.75])
    assert len(estimates) == 4
    for est in estimates:
        assert est.k_hat >= FLOOR
        assert witness_violates(est, bump=1e-6)


def test_high_gamma_probe():
    est = estimate_constant(0.99, grid=32, refinements=2)
    assert est.k_hat >= FLOOR


def test_refinement_never_raises_the_minimum():
    est = estimate_constant(0.3)
    mins = [level["min"] for level in est.grid_stats["levels"]]
    assert est.k_hat <= min(mins) + 1e-15


def test_determinism_bit_identical_csv(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_estimates_csv(sweep_conjecture([0.0, 0.5], grid=32, refinements=1), f1)
    write_estimates_csv(sweep_conjecture([0.0, 0.5], grid=32, refinements=1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header == "gamma,K_hat,a_witness,r_witness,refinements"


def test_augmentation_only_lowers_the_estimate():
    base = estimate_constant(0.25, grid=32, refinements=1)
    aug = estimate_constant(0.25, grid=32, refinements=1, augment_samples=8, seed=42)
    assert aug.k_hat <= base.k_hat + 1e-15
    assert aug.k_hat >= FLOOR
    assert aug.grid_stats["augment"]["count"] == 8


def test_non_monotonic_pairs_are_diagnostics():
    estimates = sweep_conjecture([0.0, 0.5], grid=32, refinements=1)
    pairs = non_monotonic_pairs(estimates)
    assert isinstance(pairs, list)
    # the family bound grows with gamma, so the flag fires here
    assert pairs == [(0.0, 0.5)]


def test_degenerate_single_point_sweep():
    estimates = sweep_conjecture([0.0], grid=32, refinements=1)
    assert len(estimates) == 1


def test_ratio_grid_matches_the_series_evaluator():
    # the closed-form geometric sums against the order-2048 series; a < gamma
    # gives a negative constant term A_0
    for gamma in (0.0, 0.4, 0.8):
        a_values = np.array([0.05, 0.3, 0.6, 0.9, 0.99])
        r_values = np.linspace(1e-3, functionals.sharp_majorant_radius(gamma), 16)
        grid = _ratio_grid(gamma, a_values, r_values)
        for i, a in enumerate(a_values):
            p = mobius_family_coeffs(MobiusFamilyParams(float(a), gamma))
            fv = functionals.area_refined_total(p, r_values, gamma, weight=1.0)
            series = (1.0 - fv.majorant) / fv.correction
            # 1 - majorant cancels near the sharp radius, which puts about
            # eps / area of absolute rounding error into the series side
            slack = 1e-12 * series + 4.0 * np.finfo(float).eps / fv.correction
            assert np.all(np.abs(grid[i] - series) <= slack)


@settings(max_examples=40)
@given(
    gamma=st.floats(0.0, 0.95),
    a_window=st.tuples(st.floats(1e-3, 0.999), st.floats(1e-3, 0.999)),
    grid=st.integers(2, 64),
)
# this a grid holds 0.2239869934967484, whose float ** 2 and array ** 2 round apart
@example(gamma=0.3, a_window=(0.05, 0.99), grid=2000)
def test_ratio_grid_equals_the_per_member_reference_bit_for_bit(gamma, a_window, grid):
    a_values = np.linspace(*sorted(a_window), grid)
    r_values = np.linspace(1e-3, functionals.sharp_majorant_radius(gamma), grid)
    assert np.array_equal(_ratio_grid(gamma, a_values, r_values), ratio_grid_reference(gamma, a_values, r_values))


def test_window_edges_names_only_edge_coordinates():
    est = estimate_constant(0.0, grid=16, refinements=1)
    assert [edge.split(" on ")[0] for edge in window_edges(est)] == ["a=0.99", "r=0.333333"]
    inside = dataclasses.replace(est, witness_a=0.5, witness_r=0.2)
    assert window_edges(inside) == []
    # a random sample's witness has no a; its r is still checked
    sample = dataclasses.replace(est, witness_a=float("nan"), witness_r=1e-3)
    assert window_edges(sample) == ["r=0.001 on the lower edge of [0.001, 0.333333]"]
