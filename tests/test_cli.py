"""Command-line interface: output contracts, exit codes, determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab
from bohrlab import cli, conjecture, solver, verify
from bohrlab.cli import SWEEP_THEOREMS, THEOREMS, main
from bohrlab.extremals import sharpness_a_grid
from bohrlab.functionals import bohr_total
from bohrlab.series import DEFAULT_ORDER
from bohrlab.solver import UPPER_LIMIT

from oracles import (bisection_radius, member, member_radius_root, member_series, member_series_stack,
                     sweep_csv_reference)

# subprocesses of ``python -m bohrlab.cli`` import the package from this tree
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(bohrlab.__file__).resolve().parents[1])}


def run_cli(*argv):
    """In-process invocation; returns (exit_code, captured stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_radius_theorem_b():
    code, out = run_cli("radius", "--theorem", "B", "--gamma", "0.5")
    assert code == 0
    assert "0.428571429" in out  # closed form 3/7
    computed = float(out.splitlines()[1].split("=")[1])
    assert abs(computed - 3.0 / 7.0) < 1e-3
    assert out.splitlines()[5].endswith("(minimum over a = 1 - 2^-j, j = 11..14)")


def test_radius_corollary_gamma_zero():
    code, out = run_cli("radius", "--theorem", "corollary", "--gamma", "0")
    assert code == 0
    assert "0.200000000" in out


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("theorem,name,general", [("A", "gamma", "B"), ("corollary", "k", "4")])
def test_radius_pinned_theorem_takes_only_its_pinned_value(tmp_path, capsys, theorem, name, general, by_config):
    pinned = {"gamma": 0.0, "k": 1.0}[name]
    for value, code in ((0.5, 2), (pinned, 0)):
        argv = ["radius", "--theorem", theorem, "--order", "256"]
        if by_config:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({name: value}))
            argv += ["--config", str(cfg)]
        else:
            argv += [f"--{name}", str(value)]
        assert main(argv) == code, value
        err = capsys.readouterr().err
        if code:
            assert err == (f"theorem {theorem} is the {name}={pinned:g} case of theorem {general}; "
                           f"use --theorem {general} for {name}=0.5\n")


def test_radius_single_family_member():
    # one member only brackets the family radius; reported, not asserted
    code, out = run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--a", "0.9")
    assert code == 0
    computed = float(out.splitlines()[1].split("=")[1])
    assert abs(computed - 0.5076923) < 1e-6  # (1+g)(1-ag)/((1-g)(1+2a+ag))


# The sharp radii as the paper states them, as functions of (gamma, k), with
# the coefficient-ratio supremum lambda = 1/(1+gamma) of the enlarged disk.
CLOSED_FORMS = {
    "A": lambda g, k: 1.0 / 3.0,
    "B": lambda g, k: (1.0 + g) / (3.0 + g),
    "1": lambda g, k: (1.0 + g) / (3.0 + g),
    "2": lambda g, k: (1.0 + g) / (3.0 + g),
    "3": lambda g, k: 1.0 / (1.0 + 2.0 / (1.0 + g)),
    "4": lambda g, k: (1.0 + g) / (3.0 + 2.0 * k + g),
    "corollary": lambda g, k: (1.0 + g) / (5.0 + g),
}


@pytest.mark.parametrize(
    "theorem,k",
    [("A", None), ("B", None), ("1", None), ("2", None), ("3", None), ("4", None), ("4", 0.5),
     ("corollary", None), ("corollary", 0.5)],
)
def test_radius_other_theorems_match_closed_forms(theorem, k, tmp_path):
    out = tmp_path / "radius.json"
    gamma = 0.0 if theorem == "A" else 0.3
    argv = ["radius", "--theorem", theorem, "--order", "1024", "--out", str(out)]
    if theorem != "A":
        argv += ["--gamma", str(gamma)]
    if k is not None:
        argv += ["--k", str(k)]
    code, _ = run_cli(*argv)
    if theorem == "corollary" and k is not None:  # the corollary is the k = 1 case: another --k is a usage error
        assert code == 2 and not out.exists()
        return
    assert code == 0
    payload = json.loads(out.read_text())
    expected = CLOSED_FORMS[theorem](gamma, 1.0 if k is None or theorem == "corollary" else k)
    assert payload["closed_form"] == pytest.approx(expected, rel=1e-15)
    assert abs(payload["computed_radius"] - expected) < 1e-3


def test_radius_artifacts(tmp_path):
    out_json = tmp_path / "radius.json"
    code, _ = run_cli("radius", "--theorem", "B", "--gamma", "0.2", "--out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["theorem"] == "B"
    assert abs(payload["closed_form"] - 1.2 / 3.2) < 1e-15
    assert abs(payload["computed_radius"] - payload["closed_form"]) < 1e-3

    out_csv = tmp_path / "radius.csv"
    for _ in range(2):  # rows append, header written once
        code, _ = run_cli("radius", "--theorem", "B", "--gamma", "0.2", "--out", str(out_csv))
        assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["gamma", "k", "lambda", "functional_id", "radius", "tol"]
    assert len(rows) == 3


def test_radius_json_lists_members_and_itp_saves_evaluator_calls(tmp_path):
    out = tmp_path / "radius.json"
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--out", str(out))[0] == 0
    result = json.loads(out.read_text())["result"]
    grid = [float(a) for a in sharpness_a_grid()[-4:]]
    members = result["members"]
    assert [m["a"] for m in members] == grid
    assert min(m["radius"] for m in members) == result["radius"]
    assert sum(m["iterations"] for m in members) == result["iterations"]
    # plain bisection on the same 4 members takes 136 steps; ITP at most 25% of that
    bisection_steps = 0
    for a in grid:
        p = member(a, 0.5)
        padded = lambda r: bohr_total(p, np.array([r])).padded()[0]
        assert padded(UPPER_LIMIT) > 1.0
        bisection_steps += bisection_radius(padded)[1]
    assert bisection_steps == 136
    assert result["iterations"] <= 0.25 * bisection_steps


def test_radius_unconstrained_member_reports_the_bracket_up_to_one(tmp_path):
    out = tmp_path / "u.json"
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--a", "0.3", "--out", str(out))[0] == 0
    result = json.loads(out.read_text())["result"]
    assert result["status"] == "unconstrained"
    assert result["radius"] == UPPER_LIMIT
    assert result["bracket"] == [UPPER_LIMIT, 1.0]
    assert result["tol"] == 1.0 - UPPER_LIMIT


def test_radius_monotonicity_note_ignores_members_below_gamma(tmp_path):
    # grid members with a <= gamma are no sharpness witnesses; their radii may rise with a
    out = tmp_path / "radius.json"
    code, text = run_cli("radius", "--theorem", "1", "--gamma", "0.9", "--out", str(out))
    assert code == 0
    assert "note:" not in text
    assert json.loads(out.read_text())["result"]["diagnostics"] == []


def test_usage_error_exit_code():
    # out-of-range values, and values that would leave no work to do
    for argv in (
        ["radius", "--theorem", "Z"],
        ["radius", "--theorem", "B", "--gamma", "1.5"],
        ["radius", "--theorem", "B", "--order", "0"],
        ["sweep", "--gammas", "1.5"],
        ["sweep", "--gammas", "0:0.9:0"],
        ["sweep", "--grid", "0"],
        ["conjecture", "--gammas", "1.5"],
        ["conjecture", "--gammas", ","],
        ["conjecture", "--grid", "1"],
        ["conjecture", "--refinements", "1"],
        ["identity-check", "--samples", "0"],
        ["verify", "--seed", "-1"],
        ["radius", "--theorem", "B", "--seed", "1"],  # only the commands that draw random samples take a seed
        ["sweep", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("value", ["100", "-5", "0.889"])
def test_area_weight_past_the_admissible_range_is_a_usage_error(tmp_path, capsys, value):
    # the closed form (1+gamma)/(3+gamma) holds only for weights in [0, 8/9]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": float(value)}))
    for argv in (["radius", "--theorem", "1", "--gamma", "0.3", "--K", value],
                 ["radius", "--theorem", "1", "--gamma", "0.3", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--K: must lie in [0, 8/9]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "0.5", repr(8.0 / 9.0)])
def test_area_weight_in_the_admissible_range_matches_the_closed_form(value):
    code, text = run_cli("radius", "--theorem", "1", "--gamma", "0.3", "--K", value)
    assert code == 0 and f"K={float(value):g}" in text


def test_verify_fast_and_filter(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli("verify", "--all", "--fast", "--seed", "42", "--out", str(out))
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["passed"] for r in reports)
    code, text = run_cli("verify", "--check", "schwarz-pick", "--fast")
    assert code == 0
    assert "schwarz-pick" in text
    code, _ = run_cli("verify", "--check", "nope", "--fast")
    assert code == 2


_CHECK_FUNCTIONS = (
    "check_schwarz_pick",
    "check_coefficient_bounds",
    "check_ruscheweyh",
    "check_dilatation_coefficients",
    "check_family_deficit_identity",
    "check_recentred_consistency",
    "check_recentred_slack_certificate",
    "shape_reports",
)


@pytest.mark.parametrize(
    "name,runs",
    [("coefficient-bounds", "check_coefficient_bounds"), ("shape:norm-radius-root", "shape_reports")],
)
def test_verify_check_runs_only_the_named_check(monkeypatch, name, runs):
    def fail(*args, **kwargs):
        raise AssertionError("a check that was not asked for ran")

    for fn in _CHECK_FUNCTIONS:
        if fn != runs:
            monkeypatch.setattr(verify, fn, fail)
    code, text = run_cli("verify", "--check", name, "--fast")
    assert code == 0
    assert [line.split()[1] for line in text.splitlines()] == [name]
    monkeypatch.setattr(verify, runs, fail)
    assert run_cli("verify", "--check", name, "--check", "nope")[0] == 2  # before any check runs


@pytest.mark.parametrize(
    "argv,config",
    [
        (["verify", "--all", "--check", "schwarz-pick"], None),
        (["verify", "--check", "schwarz-pick", "--all"], None),
        (["verify", "--check", "schwarz-pick"], {"all": True}),
        (["verify", "--all"], {"check": ["schwarz-pick"]}),
    ],
    ids=["flags", "flags-reversed", "config-all", "config-check"],
)
def test_verify_all_with_check_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, config):
    for fn in _CHECK_FUNCTIONS:
        monkeypatch.setattr(verify, fn, lambda *args, **kwargs: pytest.fail("a check ran"))
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--fast"])
    assert exc.value.code == 2
    assert "cannot be combined with --check" in capsys.readouterr().err


def test_verify_shape_checks_share_one_shape_reports_call(monkeypatch):
    calls = []
    shape_reports = verify.shape_reports
    monkeypatch.setattr(verify, "shape_reports", lambda: calls.append(1) or shape_reports())
    checks = verify.default_checks(42, False)
    assert [checks[name]().name for name in verify.SHAPE_CHECKS] == list(verify.SHAPE_CHECKS)
    assert calls == [1]
    assert [r.name for r in shape_reports()] == list(verify.SHAPE_CHECKS)


def test_verify_deterministic_report_files(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("verify", "--all", "--fast", "--seed", "42", "--out", str(f1))[0] == 0
    assert run_cli("verify", "--all", "--fast", "--seed", "42", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("theorem", ["B", "1", "2", "3", "4"])
def test_sweep_csv_columns(tmp_path, theorem):
    out = tmp_path / "sweep.csv"
    code, text = run_cli(
        "sweep", "--theorem", theorem, "--gammas", "0,0.5", "--grid", "8", "--order", "512",
        "--out", str(out),
    )
    assert code == 0
    assert "0 admissibility violations" in text
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["gamma", "a", "k", "lambda", "r", "total", "majorant", "correction", "tail_error"]
    assert len(rows) == 1 + 2 * 14 * 8
    # every cell is a plain number, and every row reproduces in isolation:
    # total = majorant + correction
    for row in rows[1:]:
        gamma, a, k, lam, r, total, major, corr, tail = map(float, row)
        assert abs(total - (major + corr)) < 1e-15


@st.composite
def _sweep_argv(draw):
    argv = ["sweep", "--theorem", draw(st.sampled_from(SWEEP_THEOREMS))]
    gammas = draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
    argv += ["--gammas", ",".join(map(repr, gammas)), "--grid", str(draw(st.integers(1, 64)))]
    if draw(st.booleans()):
        argv += ["--k", repr(draw(st.floats(0.0, 1.0)))]
    if draw(st.booleans()):
        argv += ["--lambda", repr(draw(st.floats(0.05, 4.0)))]
    return argv + ["--order", draw(st.sampled_from(["16", "2048"]))]


@settings(max_examples=40)
@given(argv=_sweep_argv())
def test_sweep_csv_bytes_equal_the_csv_writer_reference(property_dir, argv):
    out, ref = property_dir / "sweep.csv", property_dir / "sweep-ref.csv"
    code, line = run_cli(*argv, "--out", str(out))
    assert run_cli(*argv) == (code, line)  # without --out: the same rows counted
    args = cli.build_parser()[0].parse_args(argv + ["--out", str(ref)])
    assert sweep_csv_reference(args) == line
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("theorem", SWEEP_THEOREMS)
def test_sweep_rows_stop_at_the_grid_radius_and_keep_the_full_rows_cells(tmp_path, theorem):
    # each gamma's stack stops where the grid's largest radius stops reading it
    # (32 or 64 terms, against 2,049); every cell stays within an ulp of the
    # full-order stack's, tail_error within 2^-58, and the row and violation
    # counts are the full stack's
    gammas = [0.0, 0.37, 0.9, 0.99]
    bound = cli.BOUNDS[theorem]
    orders = []

    builder = "harmonic_extremal" if bound.harmonic else "mobius_family_coeffs"
    build = getattr(cli, builder)

    def recording_builder(*args, **kwargs):
        stack = build(*args, **kwargs)
        orders.append((stack[0] if bound.harmonic else stack).order)
        return stack

    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--theorem", theorem, "--gammas", ",".join(map(repr, gammas))]
    with mock.patch.object(cli, builder, recording_builder):
        code, line = run_cli(*argv, "--out", str(out))
        assert run_cli(*argv, "--order", "40")[0] == code
    assert len(orders) == 2 * len(gammas)
    assert max(orders[: len(gammas)]) <= 128 and max(orders[len(gammas):]) <= 40
    with out.open(newline="") as fh:
        cells = np.array([list(map(float, row)) for row in list(csv.reader(fh))[1:]]).reshape(len(gammas), 14, 64, 9)
    args = cli.build_parser()[0].parse_args(argv)
    violations = 0
    for gamma, swept in zip(gammas, cells):
        values = cli._parameters(args, gamma)
        x = values.get(bound.param)
        r_values = np.linspace(0.0, bound.radius(gamma, x), 64)
        full = bound.total(cli._series(bound, sharpness_a_grid(), gamma, values["k"], DEFAULT_ORDER, None),
                           r_values[None, :], gamma, x)
        for column, value in enumerate((full.total, full.majorant, full.correction), start=5):
            assert np.all(np.abs(swept[..., column] - value) <= np.spacing(np.abs(value)))
        assert np.all(np.abs(swept[..., 8] - full.tail_error) <= 2.0**-58)
        violations += int(np.count_nonzero(full.padded() > 1.0))
    assert line == f"sweep theorem {theorem}: {len(gammas) * 14 * 64} rows, {violations} admissibility violations\n"
    assert code == (0 if violations == 0 else 1)


def test_conjecture_command(tmp_path):
    out = tmp_path / "conj.csv"
    code, text = run_cli("conjecture", "--gammas", "0,0.5", "--grid", "32", "--out", str(out))
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 3 and all(" K*=" in line and " K_cert=" in line for line in lines[:2])
    assert lines[2].startswith("note: the witness sits on the window corner (a=0.99, r=r0) at gamma=0, 0.5:")
    rows = out.read_text().splitlines()
    assert rows[0] == "gamma,K_hat,a_witness,r_witness,refinements"
    assert len(rows) == 3


def test_conjecture_seed_reaches_only_the_random_samples(tmp_path):
    # with no --augment-random-samples nothing random is drawn: every seed gives the same output
    runs = [run_cli("conjecture", "--gammas", "0,0.5", "--seed", seed, "--out", str(tmp_path / f"{seed}.csv"))
            for seed in ("1", "2")]
    assert runs[0] == runs[1]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_conjecture_default_csv_cells(tmp_path):
    # one coarse grid: its witness is the corner (a = 0.99, r = r0); the
    # refinements column is kept and always 0
    out = tmp_path / "c.csv"
    code, text = run_cli("conjecture", "--gammas", "0,0.25,0.5,0.75", "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [row[1] for row in rows] == ["1.7956561702986769", "3.998111297555683", "11.364201107211564",
                                        "56.83909304661004"]
    assert [row[2] for row in rows] == ["0.99"] * 4
    assert [float(row[3]) for row in rows] == [(1.0 + g) / (3.0 + g) for g in (0.0, 0.25, 0.5, 0.75)]
    assert [row[4] for row in rows] == ["0"] * 4
    first = text.splitlines()[0]
    assert " K*=1.7777777777777777 K_cert=0.8888888888888888 " in first and first.endswith("[ok]")


def test_family_witness_below_the_limit_weight_is_a_violation(monkeypatch):
    monkeypatch.setattr(cli, "family_limit_weight", lambda gamma: 2.0)
    code, text = run_cli("conjecture", "--gammas", "0", "--grid", "8")
    assert code == 1 and text.splitlines()[0].endswith("[VIOLATION]")


@pytest.mark.parametrize("gammas", ["0.9996", "0.5,0.9991", "0.99:0.9999:3"])
def test_conjecture_gamma_past_its_cap_is_a_usage_error(tmp_path, capsys, gammas):
    # at gamma = 0.9996 the 1e-6 weight bump fell below the rounding of the witness's
    # total, and a K_hat above K* was reported as a VIOLATION
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gammas": gammas}))
    for argv in (["conjecture", "--gammas", gammas], ["conjecture", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--gammas: every gamma must be at most 0.999" in err and "weight bump" in err
    assert "[0, 0.999]" in " ".join(cli.build_parser()[1]["conjecture"].format_help().split())


def test_conjecture_notes_the_corner_witnesses_once_and_keeps_its_csv(tmp_path):
    # gamma = 0.99's witness lies inside the window (a = 0.975...), the others on its corner
    out = tmp_path / "c.csv"
    code, text = run_cli("conjecture", "--gammas", "0,0.25,0.99,0.5,0.9", "--out", str(out))
    assert code == 0
    notes = [line for line in text.splitlines() if line.startswith("note:")]
    assert notes == ["note: the witness sits on the window corner (a=0.99, r=r0) at gamma=0, 0.25, 0.5, 0.9: "
                     "the minimum is on the window's edge, where K_hat tends to K* as a -> 1"]
    estimates = [conjecture.estimate_constant(gamma, 64, 0, 42) for gamma in (0.0, 0.25, 0.99, 0.5, 0.9)]
    assert [conjecture.at_window_corner(e) for e in estimates] == [True, True, False, True, True]
    # the CSV the command wrote before it printed the note, byte for byte
    assert out.read_bytes() == (
        b"gamma,K_hat,a_witness,r_witness,refinements\r\n"
        b"0.0,1.7956561702986769,0.99,0.3333333333333333,0\r\n"
        b"0.25,3.998111297555683,0.99,0.38461538461538464,0\r\n"
        b"0.99,79642.10420979194,0.975079365079365,0.49874686716791977,0\r\n"
        b"0.5,11.364201107211564,0.99,0.42857142857142855,0\r\n"
        b"0.9,418.10167580541304,0.99,0.48717948717948717,0\r\n"
    )


def test_conjecture_prints_no_corner_note_when_no_witness_is_on_the_corner():
    code, text = run_cli("conjecture", "--gammas", "0.99")
    assert code == 0 and "note:" not in text


def test_conjecture_runs_up_to_its_gamma_cap_and_sweep_past_it():
    code, text = run_cli("conjecture", "--gammas", "0.99,0.999", "--grid", "8")
    assert code == 0 and text.count("[ok]") == 2
    assert cli.build_parser()[0].parse_args(["sweep", "--gammas", "0.9997"]).gammas == [0.9997]


def test_removed_refinements_option_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinements": 1}))
    for argv in (["conjecture", "--refinements", "1"], ["conjecture", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "refinements" in capsys.readouterr().err


def test_identity_check_command():
    code, text = run_cli("identity-check", "--samples", "25", "--seed", "7")
    assert code == 0
    assert "PASS" in text


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "B", "gamma": 0.5, "order": 512}))
    code, out = run_cli("radius", "--theorem", "B", "--config", str(cfg))
    assert code == 0
    assert "gamma=0.5" in out
    # explicit flag wins over the file
    code, out = run_cli("radius", "--theorem", "B", "--gamma", "0.2", "--config", str(cfg))
    assert code == 0
    assert "gamma=0.2" in out


def test_config_supplies_the_radius_theorem(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "B", "gamma": 0.5}))
    by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
    assert run_cli("--config", str(cfg), "radius", "--order", "256", "--out", str(by_config))[0] == 0
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--order", "256", "--out", str(by_flag))[0] == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("config", [None, {"gamma": 0.5}], ids=["no-config", "config-without-theorem"])
def test_radius_without_a_theorem_is_a_usage_error(tmp_path, capsys, config):
    argv = ["radius", "--gamma", "0.5"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), "radius"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --theorem" in capsys.readouterr().err


def _closed_stdout_run(argv, cwd, lines_read):
    """``python -m bohrlab.cli argv`` whose reader closes stdout after ``lines_read`` lines."""
    proc = subprocess.Popen([sys.executable, "-m", "bohrlab.cli", *argv], cwd=cwd, env=SRC_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("argv,out,lines_read", [
    # about 120 KB of lines: more than a pipe holds, so the command is still writing when the reader leaves
    (["conjecture", "--gammas", "0:0.99:1000"], "c.csv", 1),
    # the reader leaves before any line arrives
    (["verify", "--fast", "--seed", "3"], "v.json", 0),
    (["identity-check", "--samples", "20"], "i.json", 0),
    (["radius", "--theorem", "2", "--gamma", "0.3", "--order", "256"], "r.json", 0),
    (["radius", "--theorem", "3", "--gamma", "0.3", "--lambda", "0.5", "--order", "256"], "r.csv", 0),
    (["sweep", "--theorem", "B", "--gammas", "0.5", "--grid", "4"], "s.csv", 0),
], ids=["conjecture", "verify", "identity-check", "radius-json", "radius-csv", "sweep"])
def test_closed_stdout_keeps_the_artifact_and_exit_status(tmp_path, argv, out, lines_read):
    piped, unpiped = tmp_path / "piped", tmp_path / "unpiped"
    piped.mkdir()
    unpiped.mkdir()
    reference = subprocess.run([sys.executable, "-m", "bohrlab.cli", *argv, "--out", out], cwd=unpiped,
                               env=SRC_ENV, capture_output=True, timeout=60)
    code, err = _closed_stdout_run([*argv, "--out", out], piped, lines_read)
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert code == reference.returncode
    assert (piped / out).read_bytes() == (unpiped / out).read_bytes()


@pytest.mark.parametrize(
    "argv,theorem",
    [(["sweep", "--gammas", "0.5", "--grid", "2", "--order", "64"], "A")],
    ids=["sweep"],
)
def test_config_theorem_outside_choices_is_a_usage_error(tmp_path, capsys, argv, theorem):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": theorem}))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert f"got {theorem!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["radius", "--the", "B", "--gamma", "0.5"], "unrecognized arguments: --the B"),
        (["radius", "--theorem", "B", "--gam", "0.5"], "unrecognized arguments: --gam 0.5"),
        (["--conf={cfg}", "radius", "--theorem", "B"], "unrecognized arguments: --conf="),
    ],
    ids=["the", "gam", "top-level-conf"],
)
def test_abbreviated_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    # an abbreviation would otherwise run with the config file's value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "1", "gamma": 0.3}))
    argv = [token.format(cfg=cfg) for token in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", "64", "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["radius", "--theorem", "B"], [{"theorem": "B"}], "JSON object"),
        (["radius", "--theorem", "B"], {"gamma": "0.5"}, "--gamma"),
        (["radius", "--theorem", "B"], {"gamma": 1.5}, "must lie in [0, 1)"),
        (["radius", "--theorem", "B"], {"order": 512.5}, "--order"),
        (["verify"], {"fast": 1}, "expected true or false"),
        (["radius", "--theorem", "B"], {"gama": 0.5}, "config key 'gama' names no option of radius"),
        (["radius", "--theorem", "B"], {"seed": 1}, "config key 'seed' names no option of radius"),
        # a list stands only for a repeatable flag: --gammas kept its last item, and [] was dropped
        (["sweep", "--theorem", "1"], {"gammas": [0.1, 0.5]}, "config value for --gammas: a list"),
        (["sweep", "--theorem", "1"], {"gammas": []}, "config value for --gammas: a list"),
        (["conjecture"], {"gammas": [0.1, 0.5]}, "config value for --gammas: a list"),
        (["radius", "--theorem", "B"], {"gamma": [0.5]}, "config value for --gamma: a list"),
        (["verify"], {"fast": [True]}, "config value for --fast: a list"),
    ],
    ids=["list", "quoted-number", "out-of-range", "fraction-for-int", "number-for-switch", "unknown-key",
         "seed-on-radius", "sweep-gammas-list", "sweep-gammas-empty-list", "conjecture-gammas-list",
         "radius-gamma-list", "verify-fast-list"],
)
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_switches_and_repeated_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"check": ["schwarz-pick", "coefficient-bounds"], "fast": True}))
    code, text = run_cli("verify", "--config", str(cfg))
    assert code == 0
    assert [line.split()[1] for line in text.splitlines()] == ["schwarz-pick", "coefficient-bounds"]


def test_config_gammas_text_matches_the_flag(tmp_path):
    # the text form README gives for a list of gammas: both reach the sweep
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gammas": "0.1,0.5", "grid": 4}))
    by_config = run_cli("sweep", "--theorem", "1", "--order", "64", "--config", str(cfg))
    assert by_config == run_cli("sweep", "--theorem", "1", "--order", "64", "--gammas", "0.1,0.5", "--grid", "4")
    assert by_config == (0, "sweep theorem 1: 112 rows, 0 admissibility violations\n")


def test_cached_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    code, text = run_cli("verify", "--check", "schwarz-pick", "--fast")
    assert code == 0
    code, text = run_cli("verify", "--check", "coefficient-bounds", "--fast")
    assert (code, [line.split()[1] for line in text.splitlines()]) == (0, ["coefficient-bounds"])

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.5}))
    assert "gamma=0.5" in run_cli("radius", "--theorem", "B", "--order", "64", "--config", str(cfg))[1]
    code, text = run_cli("radius", "--theorem", "B", "--order", "64")
    assert code == 0 and "theorem B: gamma=0\n" in text and "closed-form value = 0.333333333" in text

    with pytest.raises(SystemExit) as exc:
        main(["radius", "--theorem", "B", "--gamma", "1.5"])
    assert exc.value.code == 2
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--order", "64")[0] == 0

    # three calls build the argparse tree once: the top-level parser and one per subcommand
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--order", "64")[0] == 0
    assert len(built) == 1 + len(cli.build_parser()[1])


def test_radius_csv_rows_keep_their_bytes(tmp_path):
    # csv.writer writes each float cell by its repr
    out = tmp_path / "radius.csv"
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--a", "0.9", "--out", str(out))[0] == 0
    assert run_cli("radius", "--theorem", "4", "--gamma", "0.3", "--k", "0.35", "--a", "0.99",
                   "--out", str(out))[0] == 0
    assert out.read_bytes() == (
        b"gamma,k,lambda,functional_id,radius,tol\r\n"
        b"0.5,1.0,0.6666666666666666,theorem-B,0.5076923076673081,1e-10\r\n"
        b"0.3,0.35,0.7692307692307692,theorem-4,0.3285696309228869,1e-10\r\n"
    )
    # each pinned radius is its member's 30-digit root, within tol
    for theorem, a, gamma, x, radius in (("B", 0.9, 0.5, None, 0.5076923076673081),
                                         ("4", 0.99, 0.3, 0.35, 0.3285696309228869)):
        assert abs(radius - member_radius_root(theorem, a, gamma, x)[0]) <= 1e-10


def test_radius_tolerance_below_float_spacing_terminates():
    # ITP bracketing stops once the bracket cannot shrink further in double precision
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "B", "--gamma", "0.5",
         "--tol", "1e-20", "--order", "256"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=30,
    )
    assert proc.returncode == 0
    assert "0.428571429" in proc.stdout


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "B", "--gamma", "0.5"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert "0.428571429" in proc.stdout


@pytest.mark.parametrize("theorem", ["2", "4"])
@pytest.mark.parametrize("extra,a", [([], 1.0 - 2.0**-14), (["--a", "0.3"], 0.3)], ids=["family", "a-below-gamma"])
def test_radius_json_witness_is_the_argmin_member_a_and_gamma(tmp_path, theorem, extra, a):
    # the family's argmin is a_14 > gamma, a sharpness witness; the --a member lies below gamma
    out = tmp_path / "radius.json"
    code, _ = run_cli("radius", "--theorem", theorem, "--gamma", "0.5", *extra, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["result"]["witness"] == {"a": a, "gamma": 0.5}


def test_radius_and_sweep_do_not_import_numpy_ma():
    # numpy.ma loads lazily (np.unique imports it) and adds to peak memory
    script = (
        "import sys\n"
        "from bohrlab.cli import main\n"
        "main(['radius', '--theorem', 'B', '--gamma', '0.5', '--order', '256'])\n"
        "main(['sweep', '--gammas', '0.5', '--grid', '8', '--order', '256'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Text for each option: (in-range values, out-of-range or malformed ones).
_OPTION_TEXT = {
    "theorem": (list(THEOREMS), ["Z"]),
    "gamma": (["0", "0.3", "0.95"], ["1", "-0.1", "nan", "abc"]),
    "a": (["0.3", "0.99", "1e-150"], ["1e-160", "5e-324", "0", "1.5"]),
    "k": (["0", "0.5", "1"], ["1.2"]),
    "lambda": (["0.5", "2"], ["0", "-1"]),
    "K": (["0", "0.8", "0.8888888888888888"], ["100", "-5", "0.889", "inf"]),
    "tol": (["1e-10", "1e-3", "1e-20", "10"], ["0"]),
    "order": (["1", "16", "64"], ["0"]),
    "seed": (["0", "7"], ["-1"]),
    "gammas": (["0.3", "0,0.5", "0:0.9:3"], ["0:2:3", "", "x", "0:0.9:1001"]),
    "grid": (["1", "2", "8"], ["0"]),
    "augment-random-samples": (["0", "2"], ["-1", "10001"]),
    "samples": (["1", "5"], ["0"]),
    "check": (["schwarz-pick", "shape:norm-radius-root", "recentred-consistency"], ["nope"]),
    "unknown": ([], ["1"]),
}


def _text(name):
    """One option's text, in range three times as often as not."""
    good, bad = _OPTION_TEXT[name]
    return st.sampled_from(3 * good + bad)


# Options each command always gets (small sizes: --order <= 64, --samples <= 5, verify --fast),
# then options it may get.
_COMMAND_OPTIONS = {
    "radius": (("theorem", "order"), ("gamma", "a", "k", "lambda", "K", "tol")),
    "verify": (("fast",), ("check", "seed")),
    "sweep": (("order",), ("theorem", "gammas", "grid", "k", "lambda")),
    "conjecture": ((), ("gammas", "grid", "augment-random-samples", "seed")),
    "identity-check": (("samples",), ("tol", "seed")),
}


@st.composite
def _invocations(draw):
    """(argv, config or None) for one random command line."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    always, names = _COMMAND_OPTIONS[command]
    argv = [command]
    for name in always + tuple(draw(st.lists(st.sampled_from(names), max_size=4, unique=True))):
        argv += ["--fast"] if name == "fast" else [f"--{name}", draw(_text(name))]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(names + ("unknown",)), max_size=3, unique=True))
        config = {}
        for key in keys:
            text = draw(_text(key))
            try:  # numbers as JSON numbers where they parse, else as strings
                config[key] = json.loads(text)
            except ValueError:
                config[key] = text
    return argv, config


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(max_examples=50)
@given(invocation=_invocations(), out=st.sampled_from([None, "out.json", "out.csv"]))
def test_random_command_lines_exit_0_1_or_2(property_dir, invocation, out):
    import contextlib
    import io

    argv, config = invocation
    if out is not None:
        argv = argv + ["--out", str(property_dir / out)]
    if config is not None:
        cfg = property_dir / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv


def test_tiny_family_parameter_is_a_usage_error_without_traceback():
    # ((1 - a^2) / a)^2 overflows for a below about 1e-154: theorem 1 ended in an OverflowError
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "1", "--gamma", "0.5", "--a", "1e-160",
         "--order", "64"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--a" in proc.stderr


_SAMPLED_CHECKS = (
    "schwarz-pick", "coefficient-bounds", "ruscheweyh-derivatives", "dilatation-coefficients",
    "recentred-slack-certificate",
)


@pytest.mark.parametrize("fast", [[], ["--fast"]], ids=["full", "fast"])
def test_verify_check_alone_writes_the_entry_of_verify_all(tmp_path, fast):
    # each sampled check's samples are a prefix of the seed's one stream, so
    # running it alone reproduces its report in the full run byte for byte
    everything = tmp_path / "all.json"
    run_cli("verify", "--all", "--seed", "5", "--out", str(everything), *fast)
    entries = {entry["name"]: entry for entry in json.loads(everything.read_text())}
    for name in _SAMPLED_CHECKS:
        alone = tmp_path / f"{name}.json"
        run_cli("verify", "--check", name, "--seed", "5", "--out", str(alone), *fast)
        assert json.loads(alone.read_text()) == [entries[name]], name
        assert alone.read_text() == verify.reports_to_json([verify.CheckReport(**entries[name])])


_SMALL_RUNS = {
    "radius": ["radius", "--theorem", "B", "--gamma", "0.5", "--order", "64"],
    "verify": ["verify", "--check", "schwarz-pick", "--fast"],
    "sweep": ["sweep", "--theorem", "B", "--gammas", "0.5", "--grid", "2", "--order", "16"],
    "conjecture": ["conjecture", "--gammas", "0.5", "--grid", "4"],
    "identity-check": ["identity-check", "--samples", "1"],
}


class _ReadLog(argparse.Namespace):
    """A namespace that logs the name of every attribute read from it once ``reads`` is set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_every_option_is_read_by_its_command(command):
    # an option its handler never reads is accepted and then silently ignored
    parser, commands = cli.build_parser()
    args = parser.parse_args(_SMALL_RUNS[command], namespace=_ReadLog())
    args.reads = set()
    getattr(cli, "cmd_" + command.replace("-", "_"))(args)
    # main itself reads --config (its SUPPRESS copy here has no dest) and verify's --all
    options = {action.dest for action in commands[command]._actions if action.default is not argparse.SUPPRESS}
    assert options - {"all"} - args.reads == set()


@pytest.mark.parametrize("target", ["missing-dir", "a-dir", "missing-dir-csv"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command, target):
    out = {"missing-dir": tmp_path / "nowhere" / "x.json", "a-dir": tmp_path,
           "missing-dir-csv": tmp_path / "nowhere" / "x.csv"}[target]
    with pytest.raises(SystemExit) as exc:
        main(_SMALL_RUNS[command] + ["--out", str(out)])
    assert exc.value.code == 2
    reason = "Is a directory" if target == "a-dir" else "No such file or directory"
    assert f"cannot write --out {out}: {reason}" in capsys.readouterr().err


def test_unwritable_out_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "identity-check", "--samples", "1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "cannot write --out" in proc.stderr


def test_error_reading_other_files_is_not_an_out_error(tmp_path, monkeypatch):
    def unreadable(*args):
        raise FileNotFoundError(2, "No such file or directory", str(tmp_path / "table.bin"))

    monkeypatch.setattr(cli, "cmd_identity_check", unreadable)
    with pytest.raises(FileNotFoundError):
        main(["identity-check", "--samples", "1", "--out", str(tmp_path / "x.json")])


@pytest.mark.parametrize("command", [["radius", "--theorem", "3", "--order", "16"],
                                     ["sweep", "--theorem", "3", "--gammas", "0.5", "--grid", "3", "--order", "16"]],
                         ids=["radius", "sweep"])
def test_lambda_whose_radius_rounds_to_one_is_a_usage_error(tmp_path, capsys, command):
    # 1/(1 + 2 lambda) is below one from 5.6e-17 up; at 5.5e-17 it rounds to 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 1e-300}))
    for argv in (command + ["--lambda", "5.5e-17"], command + ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--lambda: must be positive, with 1/(1 + 2 lambda) < 1" in capsys.readouterr().err
    code, _ = run_cli(*command, "--lambda", "5.6e-17")
    assert code in (0, 1)


_RADIUS_CASES = [("A", 0.0, None)] + [
    (theorem, gamma, None) for theorem in ("B", "1", "2", "3", "corollary") for gamma in (0.0, 0.37, 0.85)
] + [("4", gamma, k) for gamma in (0.0, 0.37, 0.85) for k in (0.35, 1.0)]


@pytest.mark.parametrize("theorem,gamma,k", _RADIUS_CASES)
def test_radius_result_equals_the_solve_on_per_member_series(tmp_path, theorem, gamma, k):
    # the family's float64 stack rows solve exactly as its complex per-member series do
    out = tmp_path / "radius.json"
    argv = ["radius", "--theorem", theorem, "--out", str(out)]
    argv += [] if theorem == "A" else ["--gamma", repr(gamma)]
    argv += [] if k is None else ["--k", repr(k)]
    code, _ = run_cli(*argv)
    assert code == 0
    args = cli.build_parser()[0].parse_args(argv)
    bound = cli.BOUNDS[theorem]
    values = {**cli._parameters(args, gamma), **bound.pinned}
    x = values.get(bound.param)
    family = sharpness_a_grid()[-4:]
    stack = member_series_stack(bound, family, gamma, values["k"], args.order)
    ref = solver.family_infimum_radius(lambda r: bound.total(stack, r, gamma, x), family, gamma, tol=args.tol)
    assert json.loads(out.read_text())["result"] == json.loads(json.dumps(asdict(ref)))


@pytest.mark.parametrize("a", [0.2, 0.9, 1.0 - 2.0**-14])
@pytest.mark.parametrize("theorem", THEOREMS)
def test_radius_a_equals_the_solve_on_the_members_own_series(tmp_path, theorem, a):
    # --a solves on a one-row stack: the member's own complex series gives the
    # same result, bit for bit
    out = tmp_path / "radius.json"
    argv = ["radius", "--theorem", theorem, "--a", repr(a), "--out", str(out)]
    if theorem != "A":  # A pins gamma = 0, and the corollary k = 1
        argv += ["--gamma", "0.37"] + ([] if theorem == "corollary" else ["--k", "0.35"])
    assert run_cli(*argv)[0] == 0
    args = cli.build_parser()[0].parse_args(argv)
    bound = cli.BOUNDS[theorem]
    values = {**cli._parameters(args, args.gamma or 0.0), **bound.pinned}
    gamma, x = values["gamma"], values.get(bound.param)
    series = member_series(bound, a, gamma, values["k"], args.order)
    ref = solver.family_infimum_radius(lambda r: bound.total(series, r, gamma, x), [a], gamma, tol=args.tol)
    assert json.loads(out.read_text())["result"] == json.loads(json.dumps(asdict(ref)))


@pytest.mark.parametrize(
    "gamma,lam,asserted",
    [("0", "0.7", False), ("0", "2", True), (repr(3.0 / 7.0), None, True)],
    ids=["below", "above", "extremal"],
)
def test_theorem_3_asserts_its_closed_form_only_where_the_family_is_in_its_class(gamma, lam, asserted,
                                                                                   monkeypatch):
    # the family's coefficient ratio is 1/(1+gamma), the default lambda: it is
    # extremal there, in the theorem's class above it and outside it below
    argv = ["radius", "--theorem", "3", "--gamma", gamma] + ([] if lam is None else ["--lambda", lam])
    code, text = run_cli(*argv)
    notes = [line for line in text.splitlines() if "where the family is extremal" in line]
    assert code == 0
    if lam is None:
        assert notes == [] and "lambda=0.7\n" in text  # 1/(1 + 3/7) is 0.7
    elif asserted:
        assert notes == ["  note: lambda=2.0 is not 1.0, where the family is extremal; the family is in the "
                         "theorem's class: asserting computed >= closed-form value"]
    else:
        assert notes == ["  note: lambda=0.7 is not 1.0, where the family is extremal; the family is outside "
                         "the theorem's class: the closed form is a reference, not asserted"]
    # a closed form above the computed radius fails exactly where it is asserted
    monkeypatch.setitem(cli.BOUNDS, "3", replace(cli.BOUNDS["3"], radius=lambda gamma, x: 0.9))
    assert run_cli(*argv)[0] == (1 if asserted else 0)


@pytest.mark.parametrize("lam,counted", [("0.6", False), (repr(1.0 / 1.5), True), ("0.8", True)],
                         ids=["below", "extremal", "above"])
def test_theorem_3_sweep_counts_violations_only_where_the_family_is_in_its_class(tmp_path, lam, counted):
    # at gamma = 0.5 the family is extremal at lambda = 1/(1+gamma) = 2/3: below it the
    # family is outside the theorem's class and its rows bound nothing, as radius says
    out, ref = tmp_path / "sweep.csv", tmp_path / "sweep-ref.csv"
    argv = ["sweep", "--theorem", "3", "--gammas", "0.5", "--lambda", lam]
    code, text = run_cli(*argv, "--out", str(out))
    args = cli.build_parser()[0].parse_args(argv + ["--out", str(ref)])
    assert sweep_csv_reference(args) == text and out.read_bytes() == ref.read_bytes()
    lines = text.splitlines()
    assert code == 0 and lines[-1].startswith("sweep theorem 3: 896 rows, ")
    if counted:
        assert len(lines) == 1
    else:
        assert lines == ["note: lambda=0.6 is below the value where the family is extremal at gamma=0.5: the family "
                         "is outside the theorem's class there, so those rows are tabulated but not counted as "
                         "violations", "sweep theorem 3: 896 rows, 0 admissibility violations"]
    # on a mixed list only the gammas outside the class are named; the others still count
    code, text = run_cli("sweep", "--theorem", "3", "--gammas", "0,0.5,0.9", "--lambda", "0.6")
    assert text.startswith("note: lambda=0.6 is below the value where the family is extremal at gamma=0, 0.5: ")
    assert code == 0


def test_identity_check_samples_past_the_cap_are_a_usage_error(tmp_path, capsys):
    cap = cli._MAX_IDENTITY_SAMPLES
    assert cli.build_parser()[0].parse_args(["identity-check", "--samples", str(cap)]).samples == cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": cap + 1}))
    for argv in (["identity-check", "--samples", "100000000"], ["identity-check", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"--samples: must lie in [1, {cap}]" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-3", "0.01", "2"])
def test_radius_tolerance_at_or_past_the_closed_form_check_is_a_usage_error(tmp_path, capsys, tol):
    # --tol 2 took no step and printed a radius of 0; no tolerance from 1e-3 up can pass the check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": float(tol)}))
    for argv in (["radius", "--theorem", "B", "--tol", tol], ["radius", "--theorem", "B", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--tol: must lie in [2^-1024, 0.001), below the closed-form check's tolerance" in capsys.readouterr().err
    assert cli.build_parser()[0].parse_args(["radius", "--theorem", "B", "--tol", "9e-4"]).tol == 9e-4


@pytest.mark.parametrize("tol", ["1e-320", "5e-324", "0"])
def test_radius_tolerance_below_the_solvers_smallest_is_a_usage_error(tmp_path, capsys, tol):
    # --tol 1e-320 ended in an OverflowError traceback from the solver's step budget
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": float(tol)}))
    for argv in (["radius", "--theorem", "B", "--gamma", "0.5", "--tol", tol],
                 ["radius", "--theorem", "B", "--gamma", "0.5", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--tol: must lie in [2^-1024, 0.001)" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", [2.0**-1024, 1e-308, 2.0**-1022])
def test_radius_runs_down_to_the_solvers_smallest_tolerance(tol):
    assert run_cli("radius", "--theorem", "B", "--gamma", "0.5", "--tol", repr(tol))[0] == 0


@pytest.mark.parametrize(
    "command,flag,cap",
    [(["radius", "--theorem", "B"], "order", cli._MAX_ORDER),
     (["sweep"], "order", cli._MAX_ORDER),
     (["sweep"], "grid", cli._MAX_SWEEP_GRID),
     (["conjecture"], "grid", cli._MAX_CONJECTURE_GRID),
     (["conjecture"], "augment-random-samples", cli._MAX_AUGMENT_SAMPLES)],
    ids=["radius-order", "sweep-order", "sweep-grid", "conjecture-grid", "conjecture-augment"],
)
def test_sizes_past_their_cap_are_a_usage_error(tmp_path, capsys, command, flag, cap):
    # memory grows with --order and sweep's --grid, and with the square of conjecture's --grid;
    # time grows with the augmented samples: the values past the cap are only parsed, never run
    parsed = cli.build_parser()[0].parse_args(command + [f"--{flag}", str(cap)])
    assert getattr(parsed, flag.replace("-", "_")) == cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: cap + 1}))
    for argv in (command + [f"--{flag}", str(10**8)], command + ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"--{flag}: must lie in [" in capsys.readouterr().err
    assert f"at most {cap}" in " ".join(cli.build_parser()[1][command[0]].format_help().split())


@pytest.mark.parametrize("command", ["sweep", "conjecture"])
def test_gamma_count_past_its_cap_is_a_usage_error(tmp_path, capsys, command):
    # only parsed, never run: a linspace count or a comma list past the cap
    cap = cli._MAX_GAMMAS
    assert len(cli.build_parser()[0].parse_args([command, "--gammas", f"0:0.9:{cap}"]).gammas) == cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gammas": f"0:0.9:{cap + 1}"}))
    for argv, message in (([command, "--gammas", "0:0.9:100000000"], f"must lie in [1, {cap}]"),
                          ([command, "--config", str(cfg)], f"must lie in [1, {cap}]"),
                          ([command, "--gammas", ",".join(["0.5"] * (cap + 1))],
                           f"must hold 1 to {cap} gamma values, got {cap + 1}")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"--gammas: {message}" in capsys.readouterr().err
    assert f"at most {cap}" in " ".join(cli.build_parser()[1][command].format_help().split())


def _readme_command_lines():
    """The ``bohrlab ...`` lines of README's usage block, comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("bohrlab ")]


def test_readme_usage_lines_parse():
    # parsed, never run: a flag removed from the CLI cannot survive in the docs
    lines = _readme_command_lines()
    assert len(lines) >= 8
    for argv in lines:
        cli.build_parser()[0].parse_args(argv)


@pytest.mark.parametrize("theorem,gamma", [("B", "0.99"), ("1", "0.97")])
def test_radius_near_gamma_one_matches_its_closed_form(theorem, gamma):
    # the grid minimum at a = 1 - 2^-14 sat 3.0e-3 and 1.0e-3 off the closed form here, and exited 1
    code, out = run_cli("radius", "--theorem", theorem, "--gamma", gamma)
    assert code == 0
    assert float(out.splitlines()[3].split("=")[1]) < 1e-9  # abs difference


def test_radius_family_reports_its_limit_and_grid_radius(tmp_path):
    out = tmp_path / "radius.json"
    assert run_cli("radius", "--theorem", "2", "--gamma", "0.5", "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    result = payload["result"]
    # the two-step Richardson values on a_12..a_14 and a_11..a_13, and their gap plus 5 tol
    r = [m["radius"] for m in result["members"]]
    two_step = [(8 * r[2] - 6 * r[1] + r[0]) / 3, (8 * r[3] - 6 * r[2] + r[1]) / 3]
    assert payload["computed_radius"] == two_step[1]
    assert payload["limit_error"] == abs(two_step[1] - two_step[0]) + 5 * 1e-10
    assert payload["grid_radius"] == result["radius"] == min(m["radius"] for m in result["members"])
    assert payload["abs_diff"] == abs(payload["computed_radius"] - payload["closed_form"]) < 1e-10
    # a family row's tol cell is the limit error
    out_csv = tmp_path / "radius.csv"
    assert run_cli("radius", "--theorem", "2", "--gamma", "0.5", "--out", str(out_csv))[0] == 0
    row = list(csv.reader(out_csv.open()))[1]
    assert row[4:] == [repr(payload["computed_radius"]), repr(payload["limit_error"])]
    # one member reports no limit
    assert run_cli("radius", "--theorem", "2", "--gamma", "0.5", "--a", "0.9", "--out", str(out))[0] == 0
    assert not {"grid_radius", "limit_error"} & set(json.loads(out.read_text()))


def test_radius_without_four_witnesses_reports_the_grid_minimum(tmp_path):
    # at gamma = 0.9998 only a = 1 - 2^-13 and 1 - 2^-14 lie above gamma
    out = tmp_path / "radius.json"
    code, text = run_cli("radius", "--theorem", "B", "--gamma", "0.9998", "--out", str(out))
    assert "note: fewer than 4 members are constrained sharpness witnesses" in text
    payload = json.loads(out.read_text())
    assert payload["limit_error"] is None
    assert payload["computed_radius"] == payload["grid_radius"] == payload["result"]["radius"]
    assert code == 1  # the grid minimum is far from the closed form
    out_csv = tmp_path / "radius.csv"
    run_cli("radius", "--theorem", "B", "--gamma", "0.9998", "--out", str(out_csv))
    assert list(csv.reader(out_csv.open()))[1][5] == ""


@pytest.mark.parametrize("theorem,gamma", [(theorem, gamma) for theorem in THEOREMS for gamma in (0.0, 0.5, 0.9, 0.99)
                                           if theorem != "A" or gamma == 0.0])
def test_radius_takes_at_most_nine_evaluator_calls_on_four_rows(monkeypatch, theorem, gamma):
    rows = []
    solve = solver.family_infimum_radius
    monkeypatch.setattr(solver, "family_infimum_radius",
                        lambda bound, a, gamma, tol: solve(lambda r: rows.append(r.shape) or bound(r), a, gamma, tol))
    argv = ["radius", "--theorem", theorem] + ([] if theorem == "A" else ["--gamma", repr(gamma)])
    assert run_cli(*argv)[0] == 0
    # two end probes and at most seven ITP steps, each one call on the four members
    assert len(rows) <= 9
    assert set(rows) == {(4,)}
