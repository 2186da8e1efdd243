"""bohrlab benchmark: seeded CLI workloads, artifact checks, layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

- ``solve``     radius for all seven theorems, seeded gamma and k;
- ``tabulate``  sweep of theorems B,1,2,3,4 at one seeded gamma per op;
- ``audit``     verify / identity-check / conjecture with seeded seeds.

Each run starts fresh child interpreters with BLAS pinned to one thread and
``src/`` on the import path.  ``SETUP_RUNS`` of them time the set-up (launch
to the end of the first, cold op); the last one then runs the closed loop
described in ``workload_child.py``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from ``layer_trace.py``.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``:

- ``failed`` counts ops that exited nonzero, raised, or wrote an artifact
  that fails its check in ``artifact_checks.py`` (wrong value or a cell that
  is not a float);
- ``correct`` is false when any number the program wrote disagrees with the
  benchmark's own closed forms.

The benchmark exits 2 without a result when ``src/bohrlab`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layer_trace import COMPUTED  # noqa: E402

SETUP_RUNS = 5  # set-up samples per run: SETUP_RUNS - 1 set-up-only children plus the main child
DEADLINE_S = 170.0
# One BLAS thread on a 2-core box, so the numbers measure bohrlab, not the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "success_rate": "1",
    "peak_rss_mb": "MB",
    "oracle_err": "1",
}
# oracle_err is the median over ops of each op's worst distance from the
# benchmark's reference (the per-op gates in artifact_checks.py bound the
# worst case); what that distance is depends on the workload.
ORACLE_ERR_MEANING = {
    "solve": "|radius - closed form|",
    "tabulate": "max over rows of |row - geometric sum| beyond tail_error",
    "audit": "family-deficit-identity residual (identity-check and verify)",
}


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spawn(args, root: Path, outdir: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(root / "src"))
    argv = [
        sys.executable, str(HERE / "workload_child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", str(outdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--launched-ns", str(time.monotonic_ns())]
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], child: dict, records: list[dict]) -> dict:
    times = [r["s"] for r in child["ops"]]
    errs = [r["err"] for r in records if not math.isnan(r["err"])]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "ops_per_s": len(times) / sum(times),
        "success_rate": sum(r["ok"] for r in records) / len(records),
        "peak_rss_mb": child["peak_rss_mb"],
        # 1.0 when no artifact could be read at all: every op then failed anyway
        "oracle_err": statistics.median(errs) if errs else 1.0,
    }


def per_layer(child: dict) -> dict:
    trace = child["trace"]
    out = {name: tuple(v) for name, v in trace["layers"].items()}
    untraced = trace["pairs"] / trace["untraced_ops_s"]
    traced = trace["pairs"] / trace["traced_ops_s"]
    out["trace.ops_per_s_untraced"] = (untraced, "1/s")
    out["trace.ops_per_s_traced"] = (traced, "1/s")
    out["trace.overhead"] = (untraced / traced - 1.0, "1")
    out["trace.span_coverage"] = (trace["traced_s"] / trace["traced_ops_s"], "1")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bohrlab" / "cli.py").is_file():
        print(f"no bohrlab sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    outdir = root / ".perfbench_run" / str(os.getpid())
    try:
        children = [spawn(args, root, outdir, deadline, True) for _ in range(SETUP_RUNS - 1)]
        children.append(spawn(args, root, outdir, deadline, False))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if outdir.parent.is_dir() and not any(outdir.parent.iterdir()):
            outdir.parent.rmdir()

    main_child = children[-1]
    records = [c["setup_op"] for c in children] + main_child["ops"]
    failed = [r for r in records if not r["ok"]]

    if args.trace:
        metrics = per_layer(main_child)
    else:
        values = end_to_end([c["setup_s"] for c in children], main_child, records)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {len(failed)}")
    if not args.trace:
        print(f"  oracle_err is the median over ops of {ORACLE_ERR_MEANING[args.workload]}")
    for name, (value, unit) in metrics.items():
        note = "  (computed from series order)" if name in COMPUTED else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{note}")
    for r in failed[:3]:
        print(f"  failed: {' '.join(r['argv'])}: {r['problem']}")
    manifest = {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": main_child["python"],
        "numpy": main_child["numpy"],
        "blas_env": main_child["blas_env"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs": SETUP_RUNS,
        "op_argv": [r["argv"] for r in records],
    }
    print("manifest " + json.dumps(manifest))
    print(json.dumps({
        "correct": all(r["values_ok"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
