"""Command-line front end: radius solving, inequality checks, sweeps.

Every run is deterministic under a fixed seed and configuration, and every
output row carries the parameters needed to reproduce it in isolation.
Artifacts are plain JSON (reports, radius results) and CSV (curves); exit
status is 0 when all executed assertions pass, 1 on an assertion failure,
and 2 on a usage error.

A JSON config file can mirror any long flag (dashes become underscores);
flags given explicitly on the command line win over the file.  Config
values go through the same argparse types and choices as the flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import conjecture as conjecture_mod
from . import functionals, solver, verify
from .extremals import (
    HarmonicExtremalParams,
    MobiusFamilyParams,
    harmonic_extremal,
    mobius_family_coeffs,
    sharpness_a_grid,
)
from .series import DEFAULT_ORDER, DiskDomain

RADIUS_MATCH_TOL = 1e-3


@dataclass(frozen=True)
class Bound:
    """One theorem's bound, evaluated on its extremal family.

    ``total(series, r, gamma, x)`` evaluates the bound on one family member,
    whose series is the pair ``(h, g)`` when the family is harmonic;
    ``radius(gamma, x)`` is the closed-form sharp radius, which is also the
    end of the sweep's radius grid.  ``x`` is the value of the one extra
    parameter the theorem reads and reports (``k``, ``lambda`` or ``K``), or
    None.  ``pinned`` fixes parameters that make the theorem a special case
    of another one.
    """

    harmonic: bool
    total: Callable[..., functionals.FunctionalValue]
    radius: Callable[[float, float | None], float]
    param: str | None = None
    pinned: dict = field(default_factory=dict)


def _majorant_radius(gamma, x):
    return functionals.sharp_majorant_radius(gamma)


# Entries look the evaluators up in ``functionals`` at call time, so a
# wrapper installed there later (a profiler or tracer) sees every call.
_MAJORANT = Bound(False, lambda p, r, gamma, x: functionals.bohr_total(p, r), _majorant_radius)
_HARMONIC = Bound(True, lambda hg, r, gamma, x: functionals.harmonic_total(*hg, r),
                  lambda gamma, x: functionals.sharp_harmonic_radius(gamma, x), "k")
BOUNDS = {
    "A": replace(_MAJORANT, pinned={"gamma": 0.0}),
    "B": _MAJORANT,
    "1": Bound(False, lambda p, r, gamma, x: functionals.area_refined_total(p, r, gamma, x),
               _majorant_radius, "K"),
    "2": Bound(False, lambda p, r, gamma, x: functionals.norm_refined_total(p, r), _majorant_radius),
    "3": Bound(False, lambda p, r, gamma, x: functionals.domain_ratio_area_total(p, r, x),
               lambda gamma, x: 1.0 / (1.0 + 2.0 * x), "lambda"),
    "4": _HARMONIC,
    "corollary": replace(_HARMONIC, pinned={"k": 1.0}),
}
THEOREMS = tuple(BOUNDS)
# A pinned theorem is a special case of another; sweeps tabulate the general one.
SWEEP_THEOREMS = tuple(t for t, bound in BOUNDS.items() if not bound.pinned)


@dataclass(frozen=True)
class _Number:
    """argparse type: text that ``kind`` parses to a finite value passing ``ok``."""

    kind: type
    ok: Callable[[float], bool] = lambda value: True
    rule: str = "be finite"

    @property
    def __name__(self) -> str:  # argparse names the type in its error messages
        return self.kind.__name__

    def __call__(self, text: str):
        value = self.kind(text)
        if not (math.isfinite(value) and self.ok(value)):
            raise argparse.ArgumentTypeError(f"must {self.rule}, got {text}")
        return value


def _at_least(low: int) -> _Number:
    return _Number(int, lambda value: value >= low, f"be at least {low}")


_GAMMA = _Number(float, lambda value: 0.0 <= value < 1.0, "lie in [0, 1)")
_UNIT = _Number(float, lambda value: 0.0 <= value <= 1.0, "lie in [0, 1]")
_POSITIVE = _Number(float, lambda value: value > 0.0, "be positive")
# the closed form (1+gamma)/(3+gamma) of theorem 1 is proven for these weights only
_WEIGHT = _Number(float, lambda value: 0.0 <= value <= functionals.DEFAULT_AREA_WEIGHT, "lie in [0, 8/9]")


def _parse_gammas(spec: str) -> list[float]:
    """Either a comma list "0,0.25,0.5" or a linspace "start:stop:count"."""
    if ":" in spec:
        start, stop, count = spec.split(":")
        gammas = [float(v) for v in np.linspace(_GAMMA(start), _GAMMA(stop), _at_least(1)(count))]
    else:
        gammas = [_GAMMA(tok) for tok in spec.split(",") if tok.strip()]
    if not gammas:
        raise argparse.ArgumentTypeError(f"no gamma values in {spec!r}")
    return gammas


def _parameters(args, gamma: float) -> dict:
    """gamma and every extra parameter: the flag's value, else its default at gamma."""
    weight = getattr(args, "weight", None)  # sweep has no --K
    return {
        "gamma": gamma,
        "k": 1.0 if args.k is None else args.k,
        "lambda": DiskDomain(gamma).coefficient_ratio_sup if args.lam is None else args.lam,
        "K": functionals.DEFAULT_AREA_WEIGHT if weight is None else weight,
    }


def _family(bound: Bound, a_grid, gamma: float, k: float) -> list:
    if bound.harmonic:
        return [HarmonicExtremalParams(float(a), gamma, k, 1.0) for a in a_grid]
    return [MobiusFamilyParams(float(a), gamma) for a in a_grid]


def _series(bound: Bound, params, order: int):
    if bound.harmonic:
        return harmonic_extremal(params, order)
    return mobius_family_coeffs(params, order)


def _append_radius_csv(path: Path, row: dict) -> None:
    header = ["gamma", "k", "lambda", "functional_id", "radius", "tol"]
    new = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        writer.writerow([repr(row[h]) if isinstance(row[h], float) else row[h] for h in header])


def cmd_radius(args) -> int:
    theorem = args.theorem
    bound = BOUNDS[theorem]
    values = {**_parameters(args, args.gamma or 0.0), **bound.pinned}
    gamma, k, lam, x = values["gamma"], values["k"], values["lambda"], values.get(bound.param)
    if args.gamma not in (None, gamma):
        print(f"theorem {theorem} is the unit-disk case; use --theorem B for gamma > 0", file=sys.stderr)
        return 2

    a_grid = [args.a] if args.a is not None else sharpness_a_grid(14)
    family = _family(bound, a_grid, gamma, k)
    # every member's series, stacked once: each solver round is one evaluator call
    members = [_series(bound, params, args.order) for params in family]
    stack = (tuple(map(functionals.SeriesStack, zip(*members))) if bound.harmonic
             else functionals.SeriesStack(members))
    del members  # the stack holds a copy: free the series before the solve
    result = solver.family_infimum_radius(lambda r: bound.total(stack, r, gamma, x), family, tol=args.tol)
    closed = bound.radius(gamma, x)
    diff = abs(result.radius - closed)

    shown = [f"gamma={gamma:g}"]
    if args.a is not None:
        shown.append(f"a={args.a:g}")
    if bound.param is not None:
        shown.append(f"{bound.param}={x:g}")
    print(f"theorem {theorem}: " + " ".join(shown))
    print(f"  computed radius   = {result.radius:.9f}")
    print(f"  closed-form value = {closed:.9f}")
    print(f"  abs difference    = {diff:.3e}")
    for note in result.diagnostics:
        print(f"  note: {note}")

    if args.out:
        out = Path(args.out)
        payload = {
            "command": "radius",
            "theorem": theorem,
            "gamma": gamma,
            "k": k,
            "lambda": lam,
            "computed_radius": result.radius,
            "closed_form": closed,
            "abs_diff": diff,
            "result": asdict(result),
        }
        if out.suffix == ".csv":
            _append_radius_csv(
                out,
                {
                    "gamma": gamma,
                    "k": k,
                    "lambda": lam,
                    "functional_id": f"theorem-{theorem}",
                    "radius": result.radius,
                    "tol": result.tol,
                },
            )
        else:
            out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    if args.a is not None:
        # a single family member only brackets the family radius from above;
        # the closed form is printed as a reference, not asserted
        return 0
    return 0 if diff < RADIUS_MATCH_TOL else 1


def cmd_verify(args) -> int:
    checks = verify.default_checks(seed=args.seed, fast=args.fast)
    unknown = set(args.checks or ()) - set(checks)
    if unknown:
        print(f"unknown check names: {sorted(unknown)}", file=sys.stderr)
        return 2
    reports = [check() for name, check in checks.items() if not args.checks or name in args.checks]
    width = max(len(r.name) for r in reports)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name:<{width}}  samples={r.samples:<6d} worst_slack={r.worst_slack:+.3e}")
    if args.out:
        Path(args.out).write_text(verify.reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(args) -> int:
    bound = BOUNDS[args.theorem]
    a_grid = sharpness_a_grid(14)
    rows = []
    violations = 0
    for gamma in args.gammas:
        values = _parameters(args, gamma)
        x = values.get(bound.param)
        # only the theorem's own parameter gets a nonzero column
        columns = [x if bound.param == name else 0.0 for name in ("k", "lambda")]
        r_values = np.linspace(0.0, bound.radius(gamma, x), args.grid)
        for params in _family(bound, a_grid, gamma, values["k"]):
            fv = bound.total(_series(bound, params, args.order), r_values, gamma, x)
            violations += int(np.count_nonzero(fv.padded() > 1.0))
            fields = (r_values, fv.total, fv.majorant, fv.correction, fv.tail_error)
            for cells in zip(*(f.tolist() for f in fields)):
                rows.append([gamma, params.a, *columns, *cells])
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "a", "k", "lambda", "r", "total", "majorant", "correction", "tail_error"])
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    print(f"sweep theorem {args.theorem}: {len(rows)} rows, {violations} admissibility violations")
    return 0 if violations == 0 else 1


def cmd_conjecture(args) -> int:
    estimates = conjecture_mod.sweep_conjecture(
        args.gammas,
        grid=args.grid,
        refinements=args.refinements,
        augment_samples=args.augment_random_samples,
        seed=args.seed,
    )
    failures = 0
    floor = functionals.DEFAULT_AREA_WEIGHT - 1e-6
    for est in estimates:
        ok_floor = est.k_hat >= floor
        ok_witness = conjecture_mod.witness_violates(est) if np.isfinite(est.witness_a) else True
        status = "ok" if (ok_floor and ok_witness) else "VIOLATION"
        failures += 0 if (ok_floor and ok_witness) else 1
        print(
            f"gamma={est.gamma:<6g} K_hat={est.k_hat:.6f} "
            f"witness=(a={est.witness_a:.6g}, r={est.witness_r:.6g}) [{status}]"
        )
        for edge in conjecture_mod.window_edges(est):
            print(f"note: gamma={est.gamma:g} witness {edge}: K_hat is the window's minimum, "
                  "not an interior optimum")
    endpoint = next((e for e in estimates if e.gamma == 0.0), None)
    if endpoint is not None:
        ref = 16.0 / 9.0
        print(f"gamma=0 endpoint estimate {endpoint.k_hat:.6f} (reference 16/9 = {ref:.6f}, "
              f"deviation {abs(endpoint.k_hat - ref):.3e}; reported, not asserted)")
    flags = conjecture_mod.non_monotonic_pairs(estimates)
    for left, right in flags:
        print(f"note: estimate increases from gamma={left:g} to gamma={right:g} (diagnostic only)")
    if args.out:
        conjecture_mod.write_estimates_csv(estimates, args.out)
    return 0 if failures == 0 else 1


def cmd_identity_check(args) -> int:
    report = verify.check_family_deficit_identity(
        n_samples=args.samples, seed=args.seed, tol=args.tol
    )
    flag = "PASS" if report.passed else "FAIL"
    print(
        f"[{flag}] {report.name}: samples={report.samples} "
        f"max_residual={-report.worst_slack:.3e} tol={report.tolerance:g}"
    )
    if args.out:
        Path(args.out).write_text(verify.reports_to_json([report]))
    return 0 if report.passed else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name.

    No parser accepts an abbreviated flag: ``--gam`` is a usage error, not
    ``--gamma``, so a flag counts as given exactly when its name appears.
    """
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Sharp-radius computations and inequality checks for bounded "
        "analytic and harmonic mappings on enlarged disks.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON file of default option values", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_at_least(0), default=42)
        p.add_argument("--out", default=None, help="artifact path (.json or .csv)")
        # also accepted after the subcommand; SUPPRESS keeps the top-level value
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = sub.add_parser("radius", help="solve for a sharp radius and compare with its closed form",
                       allow_abbrev=False)
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--gamma", type=_GAMMA, default=None)
    # below 1e-150 the squared tail constant ((1 - a^2) / a)^2 of the member overflows
    p.add_argument("--a", type=_Number(float, lambda value: 1e-150 <= value < 1.0, "lie in [1e-150, 1)"),
                   default=None, help="solve for one family member instead of sweeping the grid")
    p.add_argument("--k", type=_UNIT, default=None, help="dilatation bound for the harmonic case")
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, default=None,
                   help="coefficient-ratio supremum (defaults to 1/(1+gamma))")
    p.add_argument("--K", dest="weight", type=_WEIGHT, default=None,
                   help="area-correction weight in [0, 8/9] (defaults to 8/9)")
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.add_argument("--order", type=_at_least(1), default=DEFAULT_ORDER)
    common(p)

    p = sub.add_parser("verify", help="run the inequality check suite", allow_abbrev=False)
    p.add_argument("--all", action="store_true", help="run every check (default)")
    p.add_argument("--check", dest="checks", action="append", default=None,
                   help="run only the named check (repeatable)")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    common(p)

    p = sub.add_parser("sweep", help="tabulate one bound over the (gamma, a, r) grid", allow_abbrev=False)
    p.add_argument("--theorem", choices=SWEEP_THEOREMS, default="1")
    p.add_argument("--gammas", type=_parse_gammas, default="0:0.9:10")
    p.add_argument("--grid", type=_at_least(1), default=64, help="radii per (gamma, a) pair")
    p.add_argument("--k", type=_UNIT, default=None)
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, default=None)
    p.add_argument("--order", type=_at_least(1), default=DEFAULT_ORDER)
    common(p)

    p = sub.add_parser("conjecture", help="estimate the best admissible area weight per gamma",
                       allow_abbrev=False)
    p.add_argument("--gammas", type=_parse_gammas, default="0,0.25,0.5,0.75")
    p.add_argument("--grid", type=_at_least(2), default=64)
    p.add_argument("--refinements", type=_at_least(0), default=3)
    p.add_argument("--augment-random-samples", type=_at_least(0), default=0,
                   help="also probe this many random bounded samples")
    common(p)

    p = sub.add_parser("identity-check", help="closed-form deficit identities on random parameters",
                       allow_abbrev=False)
    p.add_argument("--samples", type=_at_least(1), default=100)
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    common(p)

    return parser, sub.choices


def _config_value(action: argparse.Action, item):
    """A config value converted by its option's own type and choices, as the
    flag's text would be; a numeric option reads a JSON string as text in quotes."""
    if action.nargs == 0:  # a switch
        if not isinstance(item, bool):
            raise TypeError(f"expected true or false, got {item!r}")
        return item
    numeric = isinstance(action.type, _Number)
    text = item if isinstance(item, str) and not numeric else json.dumps(item)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace, config, argv: list) -> None:
    """Fill options of the subcommand ``parser`` from the config file unless
    the flag appeared on the command line.

    Numeric options take JSON numbers, switches take true or false, and a
    JSON list stands for the flag given once per item.
    """
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object of option values")
    # argparse has no public accessor for a parser's options
    options = {
        flag[2:].replace("-", "_"): action
        for action in parser._actions
        if action.default is not argparse.SUPPRESS
        for flag in action.option_strings
    }
    flags = [token.split("=", 1)[0][2:].replace("-", "_") for token in argv if token[:2] == "--"]
    given = {options[flag].dest for flag in flags if flag in options}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"config key {key!r} names no option of {args.command}")
        if action.dest in given:
            continue
        for item in value if isinstance(value, list) else [value]:
            try:
                parsed = _config_value(action, item)
            except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
                parser.error(f"config value for {action.option_strings[0]}: {exc}")
            if action.nargs == 0:
                setattr(args, action.dest, parsed)
            else:
                action(parser, args, parsed)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        _apply_config(commands[args.command], args, config, argv)

    handlers = {
        "radius": cmd_radius,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "conjecture": cmd_conjecture,
        "identity-check": cmd_identity_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
