"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab
from bohrlab import verify
from bohrlab.cli import THEOREMS, main
from bohrlab.extremals import MobiusFamilyParams, mobius_family_coeffs, sharpness_a_grid
from bohrlab.functionals import bohr_total
from bohrlab.solver import UPPER_LIMIT

from oracles import bisection_radius


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


def test_radius_corollary_gamma_zero():
    code, out = run_cli("radius", "--theorem", "corollary", "--gamma", "0")
    assert code == 0
    assert "0.200000000" in out


def test_radius_theorem_a_rejects_nonzero_gamma(capfd):
    code, _ = run_cli("radius", "--theorem", "A", "--gamma", "0.5")
    assert code == 2


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
    assert code == 0
    payload = json.loads(out.read_text())
    # the corollary is the k = 1 case whatever --k says
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
    grid = [float(a) for a in sharpness_a_grid(14)]
    members = result["members"]
    assert [m["a"] for m in members] == grid
    assert min(m["radius"] for m in members) == result["radius"]
    assert sum(m["iterations"] for m in members) == result["iterations"]
    # plain bisection on the same 14 members takes 443 steps; ITP at most 45% of that
    bisection_steps = 0
    for a in grid:
        p = mobius_family_coeffs(MobiusFamilyParams(a, 0.5))
        padded = lambda r: bohr_total(p, r).padded()
        # a = gamma = 0.5 never reaches one: both solvers count its one probe
        bisection_steps += bisection_radius(padded)[1] if padded(UPPER_LIMIT) > 1.0 else 1
    assert bisection_steps == 443
    assert result["iterations"] <= 0.45 * bisection_steps


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
        ["conjecture", "--refinements", "-1"],
        ["identity-check", "--samples", "0"],
        ["verify", "--seed", "-1"],
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


def test_verify_shape_checks_share_one_shape_reports_call(monkeypatch):
    calls = []
    shape_reports = verify.shape_reports
    monkeypatch.setattr(verify, "shape_reports", lambda: calls.append(1) or shape_reports())
    checks = verify.default_checks()
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


def test_conjecture_command(tmp_path):
    out = tmp_path / "conj.csv"
    code, text = run_cli(
        "conjecture", "--gammas", "0,0.5", "--grid", "32", "--refinements", "1", "--out", str(out)
    )
    assert code == 0
    assert "endpoint estimate" in text
    rows = out.read_text().splitlines()
    assert rows[0] == "gamma,K_hat,a_witness,r_witness,refinements"
    assert len(rows) == 3


def test_conjecture_notes_a_witness_on_the_window_edge():
    # the family ratio keeps falling toward a = 1 and r = r0, so the default
    # window's corner holds the witness
    code, text = run_cli("conjecture", "--gammas", "0.5", "--grid", "16", "--refinements", "1")
    assert code == 0
    notes = [line for line in text.splitlines() if "edge" in line]
    assert notes == [
        "note: gamma=0.5 witness a=0.99 on the upper edge of [0.05, 0.99]: "
        "K_hat is the window's minimum, not an interior optimum",
        "note: gamma=0.5 witness r=0.428571 on the upper edge of [0.001, 0.428571]: "
        "K_hat is the window's minimum, not an interior optimum",
    ]


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
        (["radius", "--the", "B", "--gamma", "0.5"], "required: --theorem"),
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
    ],
    ids=["list", "quoted-number", "out-of-range", "fraction-for-int", "number-for-switch", "unknown-key"],
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


def test_radius_tolerance_below_float_spacing_terminates():
    # ITP bracketing stops once the bracket cannot shrink further in double precision
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "B", "--gamma", "0.5",
         "--tol", "1e-20", "--order", "256"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert "0.428571429" in proc.stdout


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "B", "--gamma", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.428571429" in proc.stdout


def test_radius_and_sweep_do_not_import_numpy_ma():
    # numpy.ma loads lazily (np.unique imports it) and adds to peak memory
    script = (
        "import sys\n"
        "from bohrlab.cli import main\n"
        "main(['radius', '--theorem', 'B', '--gamma', '0.5', '--order', '256'])\n"
        "main(['sweep', '--gammas', '0.5', '--grid', '8', '--order', '256'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bohrlab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
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
    "gammas": (["0.3", "0,0.5", "0:0.9:3"], ["0:2:3", "", "x"]),
    "grid": (["1", "2", "8"], ["0"]),
    "refinements": (["0", "1"], ["-1"]),
    "augment-random-samples": (["0", "2"], ["-1"]),
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
    "radius": (("theorem", "order"), ("gamma", "a", "k", "lambda", "K", "tol", "seed")),
    "verify": (("fast",), ("check", "seed")),
    "sweep": (("order",), ("theorem", "gammas", "grid", "k", "lambda", "seed")),
    "conjecture": ((), ("gammas", "grid", "refinements", "augment-random-samples", "seed")),
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
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--a" in proc.stderr
