"""Self-tests of the benchmark: seeded generators, artifact checks, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import artifact_checks  # noqa: E402
import workloads  # noqa: E402
from layer_trace import LayerTrace  # noqa: E402

from bohrlab import cli, conjecture, extremals  # noqa: E402


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_stable_per_seed(name):
    first = workloads.first_ops(name, 7, 40)
    assert first == workloads.first_ops(name, 7, 40)
    assert first != workloads.first_ops(name, 8, 40)
    # the cold set-up op has the same kind for every seed
    kinds = {(op.argv[0], op.params.get("theorem")) for op in (workloads.first_ops(name, s, 1)[0] for s in range(5))}
    assert len(kinds) == 1


def test_generator_pinned_ops():
    assert workloads.first_ops("solve", 1, 2)[1].argv == ("radius", "--theorem", "A")
    assert [op.argv[2] for op in workloads.first_ops("tabulate", 1, 6)] == ["B", "1", "2", "3", "4", "B"]
    kinds = [op.kind for op in workloads.first_ops("audit", 1, 10)]
    assert kinds.count("identity") == 3 and kinds.count("conjecture") == 3 and kinds.count("verify") == 4


def test_family_coefficients_match_taylor_expansion():
    a, gamma = 0.7, 0.3
    a0, q, c = artifact_checks.family(a, gamma)
    z = 0.2
    f = (a - gamma - (1 - gamma) * z) / (1 - a * gamma - a * (1 - gamma) * z)
    assert f == pytest.approx(a0 - sum(c * q**n * z**n for n in range(1, 200)), abs=1e-15)


def test_radius_check_flags_planted_wrong_radius(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["radius", "--theorem", "2", "--gamma", "0.4", "--out", str(out)]) == 0
    params = {"theorem": "2", "gamma": 0.4, "k": 1.0}
    verdict = artifact_checks.check("radius", out.read_text(), params)
    assert verdict.ok and verdict.err < 1e-4
    data = json.loads(out.read_text())
    data["computed_radius"] += 2e-3
    planted = artifact_checks.check("radius", json.dumps(data), params)
    assert not planted.ok and not planted.values_ok


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    assert run_cli(["sweep", "--theorem", "1", "--gammas", "0.25", "--out", str(out)]) == 0
    return out.read_text()


def test_sweep_check_flags_planted_row_error(sweep_csv):
    params = {"theorem": "1", "gamma": 0.25}
    verdict = artifact_checks.check("sweep", sweep_csv, params)
    assert verdict.ok and verdict.err < 1e-14
    lines = sweep_csv.splitlines()
    cells = lines[500].split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)
    lines[500] = ",".join(cells)
    planted = artifact_checks.check("sweep", "\n".join(lines) + "\n", params)
    assert not planted.ok and not planted.values_ok


def test_sweep_check_flags_wrapped_float_cell(sweep_csv):
    lines = sweep_csv.splitlines()
    cells = lines[7].split(",")
    cells[6] = f"np.float64({cells[6]})"
    lines[7] = ",".join(cells)
    planted = artifact_checks.check("sweep", "\n".join(lines) + "\n", {"theorem": "1", "gamma": 0.25})
    # the artifact fails, but the number inside the cell is still right
    assert not planted.ok and planted.values_ok
    assert "np.float64" in planted.problem


def test_identity_conjecture_and_verify_checks():
    report = [{"name": "family-deficit-identity", "worst_slack": -2e-15, "passed": True}]
    assert artifact_checks.check("identity", json.dumps(report), {}).ok
    report[0]["worst_slack"] = -1e-9
    assert not artifact_checks.check("identity", json.dumps(report), {}).values_ok
    header = ",".join(artifact_checks.CONJECTURE_HEADER)
    assert artifact_checks.check("conjecture", f"{header}\n0.5,1.2,0.9,0.3,3\n", {"gamma": 0.5}).ok
    low = artifact_checks.check("conjecture", f"{header}\n0.5,0.8,0.9,0.3,3\n", {"gamma": 0.5})
    assert not low.ok and not low.values_ok
    failing = [{"name": "schwarz-pick", "passed": False}]
    assert not artifact_checks.check("verify", json.dumps(failing), {"checks": ["schwarz-pick"]}).ok


def test_tracer_wraps_every_binding_and_accounts_for_time():
    originals = (extremals.mobius_family_coeffs, cli.mobius_family_coeffs, conjecture.mobius_family_coeffs)
    tracer = LayerTrace()
    tracer.install()
    try:
        assert cli.mobius_family_coeffs is conjecture.mobius_family_coeffs
        assert cli.mobius_family_coeffs is not originals[0]
        assert run_cli(["radius", "--theorem", "B", "--gamma", "0.5", "--a", "0.9"]) == 0
    finally:
        tracer.uninstall()
    assert (extremals.mobius_family_coeffs, cli.mobius_family_coeffs,
            conjecture.mobius_family_coeffs) == originals
    m = tracer.metrics(1)
    assert m["solver.solves"][0] == 1 and m["solver.useful_ratio"][0] == 1.0
    assert m["functionals.evals"][0] == m["solver.bisect_iters"][0] + 2
    assert m["extremals.series_built"][0] == 1
    assert m["functionals.coeffs_per_eval"][0] == 2049
    root = tracer.spans["cli.main"][1]
    assert tracer.traced_seconds() == pytest.approx(root * 1e-9, rel=1e-9)
