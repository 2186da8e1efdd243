"""tools/ab.py on synthetic run.py result lines: pairing, order, summary and verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.mark.parametrize("base,change,better,bound,verdict", [
    ([10, 11, 12, 10.5, 11.5, 10, 11, 12, 10.5, 11.5], [8, 9, 8.5, 8, 9, 8.5, 8, 9, 8.5, 8], "lower", 0.25, "improved"),
    ([8, 9, 8.5, 8, 9, 8.5, 8, 9, 8.5, 8], [10, 11, 12, 10.5, 11.5, 10, 11, 12, 10.5, 11.5], "lower", 0.25, "regressed"),
    # higher is better: the same numbers read the other way
    ([8, 9, 8.5, 8, 9, 8.5, 8, 9, 8.5, 8], [10, 11, 12, 10.5, 11.5, 10, 11, 12, 10.5, 11.5], "higher", 0.25, "improved"),
    # 8 wins in 10 are not enough, and the base's spread is within the bound
    ([10] * 10, [9] * 8 + [11] * 2, "lower", 0.25, "within bound"),
    # a gap inside the base's own interquartile range proves nothing
    ([9, 11, 9, 11, 9, 11, 9, 11, 9, 11], [9.9] * 10, "lower", 0.25, "within bound"),
    # the base's spread (IQR 2 on a median of 5) exceeds a 25% bound
    ([4, 6, 4, 6, 4, 6, 4, 6, 4, 6], [4.5, 6.5, 4.5, 6.5, 6.5, 4.5, 4.5, 6.5, 6.5, 4.5], "lower", 0.25, "unresolved"),
    # worse by 40% in 7 of 10 pairs with a narrow base spread
    ([10] * 10, [14] * 7 + [9] * 3, "lower", 0.25, "beyond bound"),
    # ties count for neither side
    ([1.0] * 10, [1.0] * 10, "higher", 0.05, "within bound"),
])
def test_verdicts(base, change, better, bound, verdict):
    assert ab.summarize(base, change, better, bound)["verdict"] == verdict


def test_summary_medians_quartiles_wins_and_relative_change():
    m = ab.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 2.0, 5.0, 4.0], "lower", 0.1)
    assert m["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert m["change"] == {"median": 2.0, "q1": 1.0, "q3": 4.0}
    assert m["wins"] == {"base": 1, "change": 3, "tie": 1}
    assert m["relative_change"] == pytest.approx(-1.0 / 3.0)


def _line(**values):
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def test_pairs_alternate_and_the_out_file_keeps_other_entries(tmp_path, monkeypatch):
    calls = []
    gates = [m["name"] for m in json.loads((ab.REPO / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == ab.REPO else "base"
        calls.append(side)
        value = 1.0 if side == "change" else 2.0
        return _line(**{name: value for name in gates}), {"src_sha256": side, "python": "3", "numpy": "2"}

    monkeypatch.setattr(ab, "run_side", fake_run)
    out = tmp_path / "ab.json"
    out.write_text(json.dumps({"solve seed 1": {"kept": True}}))
    argv = ["HEAD", "--workload", "audit", "--seed", "13", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert ab.main(argv) == 0
    assert calls == ["base", "change", "change", "base", "base", "change"]
    results = json.loads(out.read_text())
    assert results["solve seed 1"] == {"kept": True}
    entry = results["audit seed 13"]
    assert [(r["side"], r["pair"], r["position"]) for r in entry["runs"]] == [
        ("base", 1, 0), ("change", 1, 1), ("change", 2, 0), ("base", 2, 1), ("base", 3, 0), ("change", 3, 1)]
    assert entry["manifest"]["src_sha256"] == {"base": "base", "change": "change"}
    assert entry["manifest"]["pairs"] == 3
    assert set(entry["metrics"]) == set(gates)
    assert entry["metrics"]["op_p50_s"]["verdict"] == "improved"  # lower is better: 3 of 3 pairs
    assert entry["metrics"]["ops_per_s"]["verdict"] == "regressed"  # higher is better


def test_unknown_revision_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        ab.main(["no-such-revision-xyz", "--workload", "audit", "--seed", "1", "--pairs", "1", "--seconds", "1",
                 "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
