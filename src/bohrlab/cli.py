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
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import conjecture as conjecture_mod
from . import functionals, solver, verify
from .extremals import family_limit_weight, harmonic_extremal, mobius_family_coeffs, sharpness_a_grid
from .series import DEFAULT_ORDER, DiskDomain

RADIUS_MATCH_TOL = 1e-3


@dataclass(frozen=True)
class Bound:
    """One theorem's bound, evaluated on its extremal family.

    ``total(series, r, gamma, x)`` evaluates the bound on a stack of family
    members, the pair of stacks ``(h, g)`` when the family is harmonic;
    ``radius(gamma, x)`` is the closed-form sharp radius, which is also the
    end of the sweep's radius grid.  ``x`` is the value of the one extra
    parameter the theorem reads and reports (``k``, ``lambda`` or ``K``), or
    None.  ``pinned`` fixes parameters that make the theorem a special case
    of another one.  ``extremal(gamma)``, when given, is the one value of
    ``x`` at which the family is extremal; at any other value ``radius`` is
    not the family's radius.
    """

    harmonic: bool
    total: Callable[..., functionals.FunctionalValue]
    radius: Callable[[float, float | None], float]
    param: str | None = None
    pinned: dict = field(default_factory=dict)
    extremal: Callable[[float], float] | None = None

    def side(self, gamma: float, x) -> float:
        """Positive where the family lies in the theorem's class at ``x`` (above
        the extremal value), negative where it lies outside (below it, where
        the closed form bounds nothing), and 0 at the extremal value or for a
        theorem without one."""
        return 0.0 if self.extremal is None else x - self.extremal(gamma)


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
               lambda gamma, x: 1.0 / (1.0 + 2.0 * x), "lambda",
               extremal=lambda gamma: DiskDomain(gamma).coefficient_ratio_sup),
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
    ok: Callable[[float], bool]
    rule: str

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


def _between(low: int, high: int) -> _Number:
    return _Number(int, lambda value: low <= value <= high, f"lie in [{low}, {high}]")


# Size caps: each bounds one run's time and memory, as the flag's help states
# (measured on a 2-vCPU box); past it the flag is a usage error.
_MAX_IDENTITY_SAMPLES = 100_000
_MAX_ORDER = 2**18
_MAX_SWEEP_GRID = 4096
_MAX_CONJECTURE_GRID = 2048
_MAX_AUGMENT_SAMPLES = 10_000
_MAX_GAMMAS = 1000
_ORDER = _between(1, _MAX_ORDER)
_ORDER_HELP = (f"series order, at most {_MAX_ORDER} (about 0.6 KB and 1 us per coefficient: "
               "at most about 180 MB and 0.3 s)")
_GAMMA = _Number(float, lambda value: 0.0 <= value < 1.0, "lie in [0, 1)")
_UNIT = _Number(float, lambda value: 0.0 <= value <= 1.0, "lie in [0, 1]")
_POSITIVE = _Number(float, lambda value: value > 0.0, "be positive")
# a radius solved no closer than RADIUS_MATCH_TOL cannot pass the check against its closed form,
# and below solver.SMALLEST_TOL the solver's step budget overflows
_RADIUS_TOL = _Number(float, lambda value: solver.SMALLEST_TOL <= value < RADIUS_MATCH_TOL,
                      f"lie in [2^-1024, {RADIUS_MATCH_TOL:g}), below the closed-form check's tolerance")
# the closed form (1+gamma)/(3+gamma) of theorem 1 is proven for these weights only
_WEIGHT = _Number(float, lambda value: 0.0 <= value <= functionals.DEFAULT_AREA_WEIGHT, "lie in [0, 8/9]")
# below about 5.6e-17 theorem 3's radius 1/(1 + 2 lambda) rounds to one, which no radius reaches
_LAMBDA = _Number(float, lambda value: value > 0.0 and BOUNDS["3"].radius(0.0, value) < 1.0,
                  "be positive, with 1/(1 + 2 lambda) < 1")


def _parse_gammas(spec: str) -> list[float]:
    """Either a comma list "0,0.25,0.5" or a linspace "start:stop:count", of
    at most ``_MAX_GAMMAS`` values."""
    if ":" in spec:
        start, stop, count = spec.split(":")
        gammas = [float(v) for v in np.linspace(_GAMMA(start), _GAMMA(stop), _between(1, _MAX_GAMMAS)(count))]
    else:
        gammas = [_GAMMA(tok) for tok in spec.split(",") if tok.strip()]
    if not 1 <= len(gammas) <= _MAX_GAMMAS:
        raise argparse.ArgumentTypeError(f"must hold 1 to {_MAX_GAMMAS} gamma values, got {len(gammas)}")
    return gammas


def _conjecture_gammas(spec: str) -> list[float]:
    """:func:`_parse_gammas`, each at most ``conjecture.MAX_GAMMA``."""
    gammas = _parse_gammas(spec)
    try:
        conjecture_mod.check_gammas(gammas)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


def _series(bound: Bound, a, gamma: float, k: float, order: int, r_max):
    """The members at ``a`` (one stack row each) and gamma: their stack, or
    their pair of stacks (h, g) for a harmonic bound; with ``r_max`` each row
    stops where that radius stops reading it."""
    if bound.harmonic:
        return harmonic_extremal(a, gamma, k, order, r_max)
    return mobius_family_coeffs(a, gamma, order, r_max)


def _append_radius_csv(path: Path, row: list) -> None:
    new = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)  # writes a float by its repr
        if new:
            writer.writerow(["gamma", "k", "lambda", "functional_id", "radius", "tol"])
        writer.writerow(row)


def _print_lines(lines) -> None:
    """Print each line to stdout.  Commands write their artifact first and
    print last, so a reader that closes stdout early (``| head -1``) loses
    only printed lines: the rest go quietly nowhere, and the exit status
    stays the one the command computed."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # later writes, the interpreter's final flush among them, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_radius(args) -> int:
    theorem = args.theorem
    bound = BOUNDS[theorem]
    for name, value in bound.pinned.items():  # each pinned name is its flag's dest: gamma or k
        given = getattr(args, name)
        if given not in (None, value):
            general = next(t for t, b in BOUNDS.items() if b == replace(bound, pinned={}))
            print(f"theorem {theorem} is the {name}={value:g} case of theorem {general}; use --theorem {general} "
                  f"for {name}={given:g}", file=sys.stderr)
            return 2
    values = {**_parameters(args, args.gamma or 0.0), **bound.pinned}
    gamma, k, lam, x = values["gamma"], values["k"], values["lambda"], values.get(bound.param)

    # the family radius is sharp only as a -> 1: solve the members nearest it for their limit
    grid = sharpness_a_grid()  # member j is a = 1 - 2^-j
    a_grid = [args.a] if args.a is not None else grid[-solver.LIMIT_MEMBERS:]
    series = _series(bound, a_grid, gamma, k, args.order, None)  # one stack: one evaluator call per solver round
    result = solver.family_infimum_radius(lambda r: bound.total(series, r, gamma, x), a_grid, gamma, tol=args.tol)
    limit = solver.a_to_one_limit(result, gamma) if args.a is None else solver.Limit(result.radius, None)
    closed = bound.radius(gamma, x)
    diff = abs(limit.value - closed)
    side = bound.side(gamma, x)

    shown = [f"gamma={gamma:g}"]
    if args.a is not None:
        shown.append(f"a={args.a:g}")
    if bound.param is not None:
        shown.append(f"{bound.param}={x:g}")
    lines = [
        f"theorem {theorem}: " + " ".join(shown),
        f"  computed radius   = {limit.value:.9f}",
        f"  closed-form value = {closed:.9f}",
        f"  abs difference    = {diff:.3e}",
    ]
    if args.a is None:
        lines.append("  limit error       = " + ("none" if limit.error is None else f"{limit.error:.3e}"))
        lines.append(f"  grid radius       = {result.radius:.9f} (minimum over a = 1 - 2^-j, "
                     f"j = {grid.size - solver.LIMIT_MEMBERS + 1}..{grid.size})")
    lines += [f"  note: {note}" for note in result.diagnostics + limit.notes]
    if side and args.a is None:
        claim = ("the family is in the theorem's class: asserting computed >= closed-form value" if side > 0
                 else "the family is outside the theorem's class: the closed form is a reference, not asserted")
        lines.append(f"  note: {bound.param}={x!r} is not {bound.extremal(gamma)!r}, where the family is extremal; "
                     f"{claim}")

    if args.out:
        out = Path(args.out)
        payload = {
            "command": "radius",
            "theorem": theorem,
            "gamma": gamma,
            "k": k,
            "lambda": lam,
            "computed_radius": limit.value,
            "closed_form": closed,
            "abs_diff": diff,
            "result": dict(vars(result)),
        }
        if args.a is None:
            payload.update(grid_radius=result.radius, limit_error=limit.error)
        if out.suffix == ".csv":  # a family's tol cell is its limit error, empty when it has none
            tol = result.tol if args.a is not None else limit.error
            _append_radius_csv(out, [gamma, k, lam, f"theorem-{theorem}", limit.value, tol])
        else:
            out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    _print_lines(lines)
    if args.a is not None or side < 0:
        # a single family member only brackets the family radius from above,
        # and a family outside the class bounds nothing: the closed form is
        # printed as a reference, not asserted
        return 0
    if side > 0:  # a family in the class has at least the theorem's radius
        return 0 if limit.value >= closed - RADIUS_MATCH_TOL else 1
    return 0 if diff < RADIUS_MATCH_TOL else 1


def cmd_verify(args) -> int:
    checks = verify.default_checks(seed=args.seed, fast=args.fast)
    unknown = set(args.checks or ()) - set(checks)
    if unknown:
        print(f"unknown check names: {sorted(unknown)}", file=sys.stderr)
        return 2
    reports = [check() for name, check in checks.items() if not args.checks or name in args.checks]
    if args.out:
        Path(args.out).write_text(verify.reports_to_json(reports))
    width = max(len(r.name) for r in reports)
    _print_lines(f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  samples={r.samples:<6d} "
                 f"worst_slack={r.worst_slack:+.3e}" for r in reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(args) -> int:
    bound = BOUNDS[args.theorem]
    a_grid = sharpness_a_grid()
    rows = violations = 0
    outside = []  # the gammas where the family lies outside the theorem's class
    # each gamma's lines go out as they are made, ending in "\r\n" as csv.writer ends them
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as out:
        if out:
            out.write("gamma,a,k,lambda,r,total,majorant,correction,tail_error\r\n")
        for gamma in args.gammas:
            values = _parameters(args, gamma)
            x = values.get(bound.param)
            # only the theorem's own parameter gets a nonzero column
            k, lam = (x if bound.param == name else 0.0 for name in ("k", "lambda"))
            r_values = np.linspace(0.0, bound.radius(gamma, x), args.grid)
            # the whole family in one stack, every member on the one radius row; its rows
            # stop where the grid's largest radius stops reading them
            family = _series(bound, a_grid, gamma, values["k"], args.order, r_values[-1])
            fv = bound.total(family, r_values[None, :], gamma, x)
            if bound.side(gamma, x) < 0:  # the closed form bounds nothing there
                outside.append(gamma)
            else:
                violations += int(np.count_nonzero(fv.padded() > 1.0))
            rows += fv.total.size
            if out:  # every cell is a float: its repr needs no csv quoting
                r_cells = [repr(r) for r in r_values.tolist()]
                fields = (fv.total, fv.majorant, fv.correction, fv.tail_error)
                for a, *member in zip(a_grid.tolist(), *(f.tolist() for f in fields)):
                    prefix = f"{gamma!r},{a!r},{k!r},{lam!r}"
                    out.write("".join(f"{prefix},{r},{t!r},{m!r},{c!r},{e!r}\r\n"
                                      for r, t, m, c, e in zip(r_cells, *member)))
    lines = []
    if outside:
        lines.append(f"note: {bound.param}={x!r} is below the value where the family is extremal at gamma="
                     f"{', '.join(f'{g:g}' for g in outside)}: the family is outside the theorem's class there, "
                     "so those rows are tabulated but not counted as violations")
    lines.append(f"sweep theorem {args.theorem}: {rows} rows, {violations} admissibility violations")
    _print_lines(lines)
    return 0 if violations == 0 else 1


def cmd_conjecture(args) -> int:
    estimates = [
        conjecture_mod.estimate_constant(gamma, grid=args.grid, augment_samples=args.augment_random_samples,
                                         seed=args.seed)
        for gamma in args.gammas
    ]
    failures = 0
    floor = functionals.DEFAULT_AREA_WEIGHT - 1e-6
    lines = []
    for est in estimates:
        limit = family_limit_weight(est.gamma)
        # a family witness must violate every weight above K_hat, and no member lies below K*
        family_ok = conjecture_mod.witness_violates(est) and est.k_hat >= limit
        ok = est.k_hat >= floor and (family_ok or not np.isfinite(est.witness_a))
        failures += not ok
        lines.append(
            f"gamma={est.gamma:<6g} K_hat={est.k_hat:.6f} K*={limit!r} "
            f"K_cert={verify.certified_area_weight(est.gamma)!r} "
            f"witness=(a={est.witness_a:.6g}, r={est.witness_r:.6g}) [{'ok' if ok else 'VIOLATION'}]"
        )
    corners = [f"{est.gamma:g}" for est in estimates if conjecture_mod.at_window_corner(est)]
    if corners:
        lines.append(f"note: the witness sits on the window corner (a={conjecture_mod.A_BOUNDS[1]:g}, r=r0) at "
                     f"gamma={', '.join(corners)}: the minimum is on the window's edge, where K_hat tends to K* as "
                     "a -> 1")
    lines += [f"note: K_hat falls from gamma={left:g} to gamma={right:g} while K* rises (diagnostic only)"
              for left, right in conjecture_mod.non_monotonic_pairs(estimates)]
    if args.out:
        conjecture_mod.write_estimates_csv(estimates, args.out)
    _print_lines(lines)
    return 0 if failures == 0 else 1


def cmd_identity_check(args) -> int:
    report = verify.check_family_deficit_identity(args.samples, args.seed, DEFAULT_ORDER, args.tol)
    if args.out:
        Path(args.out).write_text(verify.reports_to_json([report]))
    flag = "PASS" if report.passed else "FAIL"
    _print_lines([f"[{flag}] {report.name}: samples={report.samples} "
                  f"max_residual={-report.worst_slack:.3e} tol={report.tolerance:g}"])
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once:
    parsing writes only to a fresh namespace, so no call leaks into the next.

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
        p.add_argument("--out", default=None, help="artifact path (.json or .csv)")
        # also accepted after the subcommand; SUPPRESS keeps the top-level value
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = sub.add_parser("radius", help="solve for a sharp radius and compare with its closed form",
                       allow_abbrev=False)
    # required, from the flag or the config file: main checks it once the file is read
    p.add_argument("--theorem", choices=THEOREMS, default=None)
    p.add_argument("--gamma", type=_GAMMA, default=None)
    # below 1e-150 the squared tail constant ((1 - a^2) / a)^2 of the member overflows
    p.add_argument("--a", type=_Number(float, lambda value: 1e-150 <= value < 1.0, "lie in [1e-150, 1)"),
                   default=None, help="solve for one family member instead of sweeping the grid")
    p.add_argument("--k", type=_UNIT, default=None, help="dilatation bound for the harmonic case")
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=None,
                   help="coefficient-ratio supremum (defaults to 1/(1+gamma), where theorem 3's family is extremal)")
    p.add_argument("--K", dest="weight", type=_WEIGHT, default=None,
                   help="area-correction weight in [0, 8/9] (defaults to 8/9)")
    p.add_argument("--tol", type=_RADIUS_TOL, default=1e-10,
                   help=f"solver tolerance, below the closed-form check's {RADIUS_MATCH_TOL:g}")
    p.add_argument("--order", type=_ORDER, default=DEFAULT_ORDER, help=_ORDER_HELP)
    common(p)

    p = sub.add_parser("verify", help="run the inequality check suite", allow_abbrev=False)
    p.add_argument("--all", action="store_true", help="run every check (default)")
    p.add_argument("--check", dest="checks", action="append", default=None,
                   help="run only the named check (repeatable)")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    common(p)

    p = sub.add_parser("sweep", help="tabulate one bound over the (gamma, a, r) grid", allow_abbrev=False)
    p.add_argument("--theorem", choices=SWEEP_THEOREMS, default="1")
    p.add_argument("--gammas", type=_parse_gammas, default="0:0.9:10",
                   help=f"a comma list or start:stop:count of at most {_MAX_GAMMAS} values (about 4 ms and "
                   "125 KB of --out per gamma at the default --grid: at most about 4 s and 125 MB)")
    p.add_argument("--grid", type=_between(1, _MAX_SWEEP_GRID), default=64,
                   help=f"radii per (gamma, a) pair, at most {_MAX_SWEEP_GRID} (with --out about 8 KB "
                   "and 0.1 ms per radius and gamma: at most about 35 MB and 0.4 s per gamma)")
    p.add_argument("--k", type=_UNIT, default=None)
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=None)
    p.add_argument("--order", type=_ORDER, default=DEFAULT_ORDER,
                   help=f"{_ORDER_HELP}; each gamma's rows stop where its grid's largest radius stops reading "
                   "them (32 or 64 terms at the defaults), never past --order")
    common(p)

    p = sub.add_parser("conjecture", help="estimate the best admissible area weight per gamma",
                       allow_abbrev=False)
    p.add_argument("--gammas", type=_conjecture_gammas, default="0,0.25,0.5,0.75",
                   help=f"a comma list or start:stop:count of at most {_MAX_GAMMAS} values in "
                   f"[0, {conjecture_mod.MAX_GAMMA:g}] (about 0.4 ms per gamma at the default --grid: at most "
                   "about 0.4 s)")
    p.add_argument("--grid", type=_between(2, _MAX_CONJECTURE_GRID), default=64,
                   help=f"points per side of the (a, r) grid, at most {_MAX_CONJECTURE_GRID} (memory grows "
                   "with its square, about 50 bytes per point: at most about 230 MB)")
    p.add_argument("--augment-random-samples", type=_between(0, _MAX_AUGMENT_SAMPLES), default=0,
                   help=f"also probe this many random bounded samples per gamma, at most {_MAX_AUGMENT_SAMPLES} "
                   "(about 0.45 ms each: at most about 5 s per gamma)")
    common(p)

    p = sub.add_parser("identity-check", help="closed-form deficit identities on random parameters",
                       allow_abbrev=False)
    p.add_argument("--samples", default=100, type=_between(1, _MAX_IDENTITY_SAMPLES),
                   help=f"random samples, at most {_MAX_IDENTITY_SAMPLES} (about 0.05 ms each: at most about 5 s)")
    p.add_argument("--tol", type=_POSITIVE, default=verify.IDENTITY_TOL)
    common(p)

    seed_help = {"conjecture": "seeds only --augment-random-samples: without them the output is the same at "
                 "every seed"}
    for name in ("verify", "conjecture", "identity-check"):  # the commands that draw random samples
        sub.choices[name].add_argument("--seed", type=_at_least(0), default=42, help=seed_help.get(name))
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
    JSON list stands for a repeatable flag given once per item; any other
    option given a list is a usage error.
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
        if isinstance(value, list) and not isinstance(action, argparse._AppendAction):
            parser.error(f"config value for {action.option_strings[0]}: a list stands only for a repeatable "
                         f"flag, got {json.dumps(value)}")
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
    if args.command == "radius" and args.theorem is None:
        commands["radius"].error("the following arguments are required: --theorem")
    if args.command == "verify" and args.all and args.checks:
        commands["verify"].error("--all runs every check; it cannot be combined with --check")

    handlers = {
        "radius": cmd_radius,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "conjecture": cmd_conjecture,
        "identity-check": cmd_identity_check,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # an --out that cannot be written is a usage error, whichever command
        if not (args.out and exc.filename and Path(exc.filename) == Path(args.out)):
            raise
        commands[args.command].error(f"cannot write --out {args.out}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
