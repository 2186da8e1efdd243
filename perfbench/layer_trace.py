"""Outside-in layer tracer for the traced benchmark run.

The tracer replaces every public function of the ``bohrlab`` layer modules
with a timing wrapper, at every module that binds the function (so
``cli.mobius_family_coeffs`` and ``conjecture.mobius_family_coeffs`` are
wrapped as well as ``extremals.mobius_family_coeffs``).  Nothing inside the
program changes.  A span's self time is its duration minus the time of the
spans it caused; counts come from the wrapped calls' arguments and return
values.  Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable

PACKAGE = "bohrlab"
LAYERS = ("cli", "solver", "functionals", "extremals", "series", "verify", "conjecture")
EVALUATORS = (
    "bohr_total",
    "area_refined_total",
    "norm_refined_total",
    "domain_ratio_area_total",
    "harmonic_total",
)
CHECK_FUNCTIONS = (
    "check_schwarz_pick",
    "check_coefficient_bounds",
    "check_ruscheweyh",
    "check_dilatation_coefficients",
    "check_family_deficit_identity",
    "check_recentred_consistency",
    "check_recentred_slack_certificate",
    "shape_reports",
)
# Metrics computed from array sizes rather than measured.
COMPUTED = ("functionals.coeffs_per_eval", "functionals.bytes_per_eval")
SOLVE = "solver.bohr_radius_of_function"
FAMILY_SOLVE = "solver.family_infimum_radius"


def public_functions(module) -> dict[str, Callable]:
    """Functions a layer module defines and exports (``__all__``, else no underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: getattr(module, n)
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    }


class LayerTrace:
    """Spans and counts per wrapped function, collected while installed."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [key, child_ns] of the open spans
        self.spans: dict[str, list[int]] = {}  # key -> [self_ns, total_ns]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, Callable]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, key: str) -> Callable:
        hook = getattr(self, "_count_" + key.replace(".", "_"), None)
        if key.split(".")[1] in EVALUATORS:
            hook = self._count_evaluator
        elif key.startswith("verify.check_"):
            hook = self._count_check
        stack = self.stack
        span = self.spans.setdefault(key, [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span[0] += elapsed - frame[1]
                span[1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self.stack)

    # -- counts from arguments and return values --------------------------

    def _count_evaluator(self, args, kwargs, result) -> None:
        c = self.counts
        c["functionals.evals"] += 1
        if self._inside(SOLVE):
            c["functionals.evals_in_solve"] += 1
        series = [a for a in args if hasattr(a, "coeffs")]
        c["functionals.coeffs"] += sum(s.coeffs.size for s in series)
        c["functionals.bytes"] += sum(s.coeffs.nbytes for s in series)

    def _count_solver_bohr_radius_of_function(self, args, kwargs, result) -> None:
        self.counts["solver.solves"] += 1
        self.counts["solver.bisect_iters"] += result.iterations
        if self._inside(FAMILY_SOLVE):
            self.counts["solver.member_solves"] += 1

    def _count_solver_family_infimum_radius(self, args, kwargs, result) -> None:
        self.counts["solver.family_solves"] += 1

    def _count_extremals_mobius_family_coeffs(self, args, kwargs, result) -> None:
        self.counts["extremals.series_built"] += 1
        self.counts["extremals.coeffs_built"] += result.coeffs.size

    def _count_extremals_harmonic_extremal(self, args, kwargs, result) -> None:
        # h is counted by the nested mobius_family_coeffs call; g is new here
        self.counts["extremals.series_built"] += 1
        self.counts["extremals.coeffs_built"] += result[1].coeffs.size

    def _count_check(self, args, kwargs, result) -> None:
        self.counts["verify.checks_run"] += 1

    def _count_series_numeric_taylor(self, args, kwargs, result) -> None:
        # signature: numeric_taylor(f, order, rho=0.5, samples=None)
        samples = kwargs.get("samples", args[3] if len(args) > 3 else None)
        self.counts["series.taylor_calls"] += 1
        self.counts["series.circle_samples"] += 8 * result.order if samples is None else int(samples)

    def _count_verify_shape_reports(self, args, kwargs, result) -> None:
        self.counts["verify.checks_run"] += len(result)

    def _count_verify_reports_to_json(self, args, kwargs, result) -> None:
        reports = args[0] if args else kwargs["reports"]
        self.counts["verify.checks_reported"] += len(reports)

    def _count_conjecture_estimate_constant(self, args, kwargs, result) -> None:
        stats = result.grid_stats
        points = len(stats["levels"]) * stats["grid"] ** 2
        if "augment" in stats:
            points += stats["augment"]["count"] * stats["grid"]
        self.counts["conjecture.estimates"] += 1
        self.counts["conjecture.grid_points"] += points

    # -- metrics ----------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for ``ops`` traced ops, as name -> (value, unit)."""
        c = self.counts
        per_op = 1.0 / max(ops, 1)
        self_s = Counter()
        for key, (self_ns, _) in self.spans.items():
            self_s[key.split(".")[0]] += self_ns * 1e-9

        def total_s(key: str) -> float:
            return self.spans.get(key, (0, 0))[1] * 1e-9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        eval_s = sum(total_s(f"functionals.{e}") for e in EVALUATORS)
        conj_s = total_s("conjecture.estimate_constant")
        out = {
            "solver.solves": (c["solver.solves"] * per_op, "count/op"),
            "solver.bisect_iters": (c["solver.bisect_iters"] * per_op, "count/op"),
            "solver.evals_per_solve": (ratio(c["functionals.evals_in_solve"], c["solver.solves"]), "count"),
            "solver.useful_ratio": (ratio(c["solver.family_solves"], c["solver.member_solves"]), "1"),
            "functionals.evals": (c["functionals.evals"] * per_op, "count/op"),
            "functionals.us_per_eval": (ratio(eval_s * 1e6, c["functionals.evals"]), "us"),
            "functionals.coeffs_per_eval": (ratio(c["functionals.coeffs"], c["functionals.evals"]), "count"),
            "functionals.bytes_per_eval": (ratio(c["functionals.bytes"], c["functionals.evals"]), "B"),
            "extremals.series_built": (c["extremals.series_built"] * per_op, "count/op"),
            "extremals.coeffs_built": (c["extremals.coeffs_built"] * per_op, "count/op"),
            "series.taylor_calls": (c["series.taylor_calls"] * per_op, "count/op"),
            "series.circle_samples": (c["series.circle_samples"] * per_op, "count/op"),
            "verify.checks_run": (c["verify.checks_run"] * per_op, "count/op"),
            "verify.checks_reported": (c["verify.checks_reported"] * per_op, "count/op"),
            "verify.useful_ratio": (ratio(c["verify.checks_reported"], c["verify.checks_run"]), "1"),
            "conjecture.estimates": (c["conjecture.estimates"] * per_op, "count/op"),
            "conjecture.grid_points": (c["conjecture.grid_points"] * per_op, "count/op"),
            "conjecture.us_per_grid_point": (ratio(conj_s * 1e6, c["conjecture.grid_points"]), "us"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] * per_op, "s/op")
        for name in CHECK_FUNCTIONS:
            out[f"verify.{name}.s"] = (total_s(f"verify.{name}") * per_op, "s/op")
        return out

    def traced_seconds(self) -> float:
        """Sum of all self times: the wall time the outermost spans cover."""
        return sum(span[0] for span in self.spans.values()) * 1e-9
