"""A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/ab.py BASE_REV --workload W --seed S --pairs N --seconds T --out FILE

BASE_REV (any git revision, e.g. HEAD~) is extracted once with ``git archive``
into a temporary directory, as ``tools/artifact_diff.sh`` does: local, and
git's state is left alone.  Each pair then runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once in that tree and once in
the working tree, each side with its own ``perfbench/`` and ``src/``; odd
pairs run the base first, even pairs the working tree first.  The
interpreter is this one, and the environment is passed on as it is:
``PYTHONDONTWRITEBYTECODE`` is recorded, not changed, so under it both sides
compile their sources on every launch.

FILE holds one JSON object with one entry per workload and seed, keyed
``"W seed S"``; an existing FILE keeps its other entries.  Each entry holds

- ``manifest``: nproc, the CPU model, Python, numpy, both git shas (the
  working tree's is HEAD, with ``dirty`` set when the tree differs from it),
  each side's ``src_sha256`` as ``run.py`` reports it,
  ``PYTHONDONTWRITEBYTECODE`` and the command;
- ``runs``: every run's result line (``run.py``'s last stdout line) with
  its side, pair and position in the pair;
- ``metrics``: per end-to-end metric, both sides' medians and quartiles,
  the pair wins, the relative change of the medians and a verdict.

Verdict rule (the choosing-metrics rule; ties count for neither side):

- ``improved`` / ``regressed``: one side wins at least 9 in 10 of the pairs
  run, and the medians differ by more than the base's interquartile range;
- ``unresolved``: otherwise, when the base's interquartile range exceeds the
  metric's ``BENCHMARK.json`` bound (relative to the base's median): its
  own spread is too wide to tell;
- ``beyond bound``: otherwise, when the working tree's median is worse than
  the base's by more than that bound;
- ``within bound``: otherwise.

Exits 1 when a run fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, from ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``run.py`` run in ``tree``: its result line and its manifest line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited with status {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    manifest = next(json.loads(line[len("manifest "):]) for line in lines if line.startswith("manifest "))
    return json.loads(lines[-1]), manifest


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's medians, quartiles, pair wins, relative change and verdict;
    ``base[i]`` and ``change[i]`` come from pair i."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: y reads better than x
    wins = {"base": 0, "change": 0, "tie": 0}
    for b, c in zip(base, change):
        wins["change" if sign * (b - c) > 0 else "base" if sign * (c - b) > 0 else "tie"] += 1
    (b1, b_med, b3), (c1, c_med, c3) = quartiles(base), quartiles(change)
    iqr, gap = b3 - b1, abs(c_med - b_med)
    needed = WIN_SHARE * len(base)
    if wins["change"] >= needed and gap > iqr:
        verdict = "improved"
    elif wins["base"] >= needed and gap > iqr:
        verdict = "regressed"
    elif iqr > bound * abs(b_med):
        verdict = "unresolved"
    elif sign * (c_med - b_med) > bound * abs(b_med):
        verdict = "beyond bound"
    else:
        verdict = "within bound"
    return {
        "better": better,
        "bound": bound,
        "base": {"median": b_med, "q1": b1, "q3": b3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "wins": wins,
        "relative_change": (c_med - b_med) / b_med if b_med else None,
        "verdict": verdict,
    }


def summarize_runs(runs: list[dict], gates: dict) -> dict:
    """Every gated metric of ``runs`` (result lines tagged with side and pair), pair by pair."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"]) for side in SIDES}
    return {
        name: summarize(*([r["result"]["metrics"][name]["value"] for r in by_side[side]] for side in SIDES),
                        gate["better"], gate["bound"])
        for name, gate in gates.items()
    }


def ab(args) -> dict:
    """The entry for one workload and seed, from ``args.pairs`` pairs of runs."""
    gates = {m["name"]: m for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    runs, src = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        extract(args.base_rev, base_tree)
        trees = {"base": base_tree, "change": REPO}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                result, manifest = run_side(trees[side], args.workload, args.seed, args.seconds)
                src[side] = manifest["src_sha256"]
                runs.append({"side": side, "pair": pair, "position": position, "result": result})
                print(f"pair {pair} {side}: " + " ".join(
                    f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), file=sys.stderr)
    return {
        "manifest": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": manifest["python"],  # the last run's: both sides run this interpreter
            "numpy": manifest["numpy"],
            "base_rev": args.base_rev,
            "base_sha": git("rev-parse", args.base_rev),
            "change_sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": src,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "command": (f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                        f"--seconds {args.seconds!r} --trace 0"),
            "pairs": args.pairs,
            "order": "odd pairs run the base first, even pairs the change first",
        },
        "runs": runs,
        "metrics": summarize_runs(runs, gates),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0], allow_abbrev=False)
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    try:
        git("rev-parse", "--verify", args.base_rev + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"not a git revision: {args.base_rev}")
    try:
        entry = ab(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, StopIteration) as exc:
        print(f"A/B run failed: {exc}", file=sys.stderr)
        return 1
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[f"{args.workload} seed {args.seed}"] = entry
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    for name, m in entry["metrics"].items():
        change = "n/a" if m["relative_change"] is None else f"{m['relative_change']:+.2%}"
        print(f"{name:<13} base {m['base']['median']:.6g}  change {m['change']['median']:.6g}  ({change})  "
              f"wins {m['wins']['change']}/{args.pairs}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
