"""One workload run inside a fresh interpreter (started by ``run.py``).

The child imports ``bohrlab`` from ``src/`` of the working directory, runs
the workload's first op cold and reports the time from its launch to the end
of that op as set-up time.  Unless ``--setup-only`` is given it then runs a
closed loop, one client: each op is one ``bohrlab.cli.main(argv)`` call, the
next is issued when the previous returns, until ``--seconds`` have passed and
at least ``MIN_OPS`` ops were timed.  Every artifact is checked outside the
timed region.  With ``--trace 1`` every op runs twice, once untraced and
once under the layer tracer.  The last stdout line is one
JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from itertools import count
from pathlib import Path

import artifact_checks
import workloads
from layer_trace import LayerTrace

MIN_OPS = 100  # the 90th percentile then has at least ten samples above it
MAX_LOOP_S = 120.0  # keeps a whole run inside its 180 s limit whatever --seconds says


class Runner:
    def __init__(self, cli, outdir: Path) -> None:
        self.cli = cli
        self.outdir = outdir
        self.index = 0

    def run(self, op: workloads.Op) -> dict:
        out = self.outdir / f"op-{self.index:05d}{op.suffix}"
        self.index += 1
        argv = [*op.argv, "--out", str(out)]
        sink = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing command is a failed op, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error:
            verdict = artifact_checks.fail(error)
        elif code != 0:
            verdict = artifact_checks.fail(f"exit status {code}: {sink.getvalue()[-300:]}")
        elif not out.is_file():
            verdict = artifact_checks.fail("no artifact written")
        else:
            verdict = artifact_checks.check(op.kind, out.read_text(), op.params)
        out.unlink(missing_ok=True)
        return {
            "argv": argv,
            "s": seconds,
            "ok": verdict.ok,
            "values_ok": verdict.values_ok,
            "err": verdict.err,
            "problem": verdict.problem,
        }



def timed_loop(seconds: float, min_ops: int):
    """Yield 0, 1, ... until ``seconds`` have passed and ``min_ops`` were yielded."""
    start = time.perf_counter()
    for n in count():
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and n >= min_ops) or elapsed >= MAX_LOOP_S:
            return
        yield n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", required=True, help="scratch directory for the artifacts")
    parser.add_argument("--launched-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this child")
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = importlib.import_module("bohrlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"bohrlab imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(cli, Path(args.outdir))
    runner.outdir.mkdir(parents=True, exist_ok=True)
    stream = workloads.ops(args.workload, args.seed)
    setup_op = runner.run(next(stream))
    result = {"setup_s": (time.monotonic_ns() - args.launched_ns) * 1e-9, "setup_op": setup_op}
    if args.trace and not args.setup_only:
        # each op runs twice, untraced and traced, in alternating order, so
        # drift in machine speed cancels from the tracing overhead
        tracer = LayerTrace()
        untraced, traced = [], []
        for n in timed_loop(args.seconds, MIN_OPS // 2):
            op = next(stream)
            if n % 2:
                untraced.append(runner.run(op))
            with tracer:
                traced.append(runner.run(op))
            if not n % 2:
                untraced.append(runner.run(op))
        result["trace"] = {
            "layers": tracer.metrics(len(traced)),
            "pairs": len(traced),
            "traced_s": tracer.traced_seconds(),
            "untraced_ops_s": sum(r["s"] for r in untraced),
            "traced_ops_s": sum(r["s"] for r in traced),
        }
        result["ops"] = untraced + traced
    elif not args.setup_only:
        result["ops"] = [runner.run(next(stream)) for _ in timed_loop(args.seconds, MIN_OPS)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["python"] = sys.version.split()[0]
    result["numpy"] = sys.modules["numpy"].__version__
    result["blas_env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
