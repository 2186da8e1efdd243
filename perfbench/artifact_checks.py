"""Artifact checks owned by the benchmark.

Every reference value here is written from first principles; nothing calls
into ``bohrlab``.  The extremal family member

    f(z) = (a - g - (1-g) z) / (1 - a g - a (1-g) z)

expands as a geometric series: with d = 1 - a g and q = a (1-g) / d,

    f(z) = A0 - sum_{n>=1} C q^n z^n,   A0 = (a-g)/d,   C = (1-a^2)/(a d),

because the n-th coefficient is q^(n-1) (A0 q - (1-g)/d) = -q^(n-1) (1-g)(1-a^2)/d^2.
So the majorant is |A0| + C x/(1-x) with x = q r, the squared norm
sum_{n>=1} |a_n|^2 r^(2n) is C^2 y/(1-y), and the Dirichlet area
sum n |a_n|^2 r^(2n) is C^2 y/(1-y)^2, with y = (q r)^2.

A check returns a :class:`Verdict`.  ``ok`` is the op's pass/fail: any
unreadable artifact (a cell that is not a float) or any wrong value fails it.
``values_ok`` looks only at the numbers, read leniently, so a format defect
alone does not make the run's numbers wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

RADIUS_GATE = 1e-3  # the CLI's own |computed - closed form| gate
ROW_TOL = 1e-12  # rounding allowance on top of the row's tail_error
IDENTITY_GATE = 1e-10
AREA_WEIGHT = 8.0 / 9.0
K_HAT_FLOOR = AREA_WEIGHT - 1e-6
SWEEP_HEADER = ["gamma", "a", "k", "lambda", "r", "total", "majorant", "correction", "tail_error"]
CONJECTURE_HEADER = ["gamma", "K_hat", "a_witness", "r_witness", "refinements"]
SWEEP_A_GRID = [1.0 - 2.0**-j for j in range(1, 15)]
SWEEP_RADII = 64

_WRAPPED = re.compile(r"^[A-Za-z_][\w.]*\((.*)\)$")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    values_ok: bool
    err: float = math.nan
    problem: str = ""


def fail(problem: str, values_ok: bool = True) -> Verdict:
    return Verdict(False, values_ok, math.nan, problem)


class Cells:
    """Float reading of CSV cells that remembers the first unparseable one."""

    def __init__(self) -> None:
        self.bad: str | None = None

    def __call__(self, text: str) -> float:
        try:
            return float(text)
        except ValueError:
            if self.bad is None:
                self.bad = text
            m = _WRAPPED.match(text.strip())
            return float(m.group(1)) if m else math.nan


def family(a: float, gamma: float) -> tuple[float, float, float]:
    """(A0, q, C) of the extremal family member, see the module docstring."""
    d = 1.0 - a * gamma
    return (a - gamma) / d, a * (1.0 - gamma) / d, (1.0 - a * a) / (a * d)


def closed_form_radius(theorem: str, gamma: float, k: float) -> float:
    if theorem == "A":
        return 1.0 / 3.0
    if theorem in ("B", "1", "2"):
        return (1.0 + gamma) / (3.0 + gamma)
    if theorem == "3":
        lam = 1.0 / (1.0 + gamma)
        return 1.0 / (1.0 + 2.0 * lam)
    if theorem == "4":
        return (1.0 + gamma) / (3.0 + 2.0 * k + gamma)
    if theorem == "corollary":
        return (1.0 + gamma) / (5.0 + gamma)
    raise ValueError(f"unknown theorem {theorem!r}")


def sweep_reference(theorem: str, gamma: float, a: float, r: float) -> tuple[float, float]:
    """(majorant, correction) of one sweep row from the geometric sums."""
    a0, q, c = family(a, gamma)
    x = q * r
    majorant = abs(a0) + c * x / (1.0 - x)
    if theorem == "B":
        return majorant, 0.0
    if theorem == "1":
        y = (x * (1.0 - gamma)) ** 2
        return majorant, AREA_WEIGHT * c * c * y / (1.0 - y) ** 2
    if theorem == "2":
        y = x * x
        return majorant, (1.0 / (1.0 + abs(a0)) + r / (1.0 - r)) * c * c * y / (1.0 - y)
    if theorem == "3":
        lam = 1.0 / (1.0 + gamma)
        y = x * x
        return majorant, 2.0 * ((1.0 + lam) / (1.0 + 2.0 * lam)) ** 2 * c * c * y / (1.0 - y) ** 2
    if theorem == "4":
        # co-analytic part k (h - h(0)) with the sweep's k = 1
        return majorant + c * x / (1.0 - x), 0.0
    raise ValueError(f"unknown theorem {theorem!r}")


def sweep_threshold(theorem: str, gamma: float) -> float:
    return closed_form_radius("corollary" if theorem == "4" else theorem, gamma, 1.0)


def check_radius(text: str, params: dict) -> Verdict:
    data = json.loads(text)
    computed = data["computed_radius"]
    if not isinstance(computed, float):
        return fail(f"computed_radius is not a float: {computed!r}")
    if data.get("theorem") != params["theorem"]:
        return fail(f"artifact is for theorem {data.get('theorem')!r}")
    err = abs(computed - closed_form_radius(params["theorem"], params["gamma"], params["k"]))
    if not err < RADIUS_GATE:
        return Verdict(False, False, err, f"radius off its closed form by {err:.3e}")
    return Verdict(True, True, err)


def check_sweep(text: str, params: dict) -> Verdict:
    theorem, gamma = params["theorem"], params["gamma"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return fail("missing or wrong CSV header")
    body = rows[1:]
    if len(body) != len(SWEEP_A_GRID) * SWEEP_RADII:
        return fail(f"{len(body)} rows, expected {len(SWEEP_A_GRID) * SWEEP_RADII}")
    cell = Cells()
    r_max = sweep_threshold(theorem, gamma)
    worst = 0.0
    problem = ""
    a_seen = set()
    for row in body:
        g, a, _k, _lam, r, total, majorant, correction, tail = (cell(v) for v in row)
        a_seen.add(a)
        if g != gamma or not 0.0 <= r <= r_max * (1.0 + 1e-12):
            problem = problem or f"row parameters off request: gamma={g} r={r}"
            continue
        ref_major, ref_corr = sweep_reference(theorem, gamma, a, r)
        beyond = max(
            abs(total - (ref_major + ref_corr)),
            abs(majorant - ref_major),
            abs(correction - ref_corr),
        ) - tail
        if not beyond <= ROW_TOL:
            problem = problem or f"row a={a} r={r} off its geometric sum by {beyond:.3e}"
        worst = max(worst, beyond)
    if a_seen != set(SWEEP_A_GRID):
        problem = problem or "family grid differs from a_j = 1 - 2^-j, j = 1..14"
    values_ok = not problem
    if cell.bad is not None:
        problem = problem or f"cell {cell.bad!r} is not a float"
    return Verdict(not problem, values_ok, worst, problem)


def check_conjecture(text: str, params: dict) -> Verdict:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != CONJECTURE_HEADER:
        return fail("conjecture CSV needs its header and one row")
    gamma, k_hat, a_wit, r_wit, refinements = rows[1]
    cell = Cells()
    values = [cell(gamma), cell(k_hat), cell(r_wit), cell(refinements)]
    if a_wit != "":  # empty when a random augmented sample is the witness
        values.append(cell(a_wit))
    if values[0] != params["gamma"]:
        return fail(f"row is for gamma={values[0]}")
    if not values[1] >= K_HAT_FLOOR:
        return fail(f"K_hat={values[1]} below the proven floor 8/9", values_ok=False)
    if not 0.0 < values[2] <= closed_form_radius("B", params["gamma"], 1.0):
        return fail(f"witness radius {values[2]} outside the search window", values_ok=False)
    if cell.bad is not None:
        return fail(f"cell {cell.bad!r} is not a float")
    return Verdict(True, True)


def check_identity(text: str, params: dict) -> Verdict:
    reports = json.loads(text)
    if len(reports) != 1 or reports[0]["name"] != "family-deficit-identity":
        return fail("identity artifact must hold the one family-deficit-identity report")
    resid = -reports[0]["worst_slack"]
    if not (0.0 <= resid <= IDENTITY_GATE and reports[0]["passed"] is True):
        return Verdict(False, False, resid, f"identity residual {resid:.3e}")
    return Verdict(True, True, resid)


def check_verify(text: str, params: dict) -> Verdict:
    reports = json.loads(text)
    names = [r["name"] for r in reports]
    if names != list(params["checks"]):
        return fail(f"reported checks {names} differ from the request {params['checks']}")
    failed = [r["name"] for r in reports if r["passed"] is not True]
    if failed:
        return fail(f"checks failed: {failed}", values_ok=False)
    # the suite's family-deficit-identity report is the identity check again
    resid = [-r["worst_slack"] for r in reports if r["name"] == "family-deficit-identity"]
    return Verdict(True, True, resid[0] if resid else math.nan)


CHECKS = {
    "radius": check_radius,
    "sweep": check_sweep,
    "conjecture": check_conjecture,
    "identity": check_identity,
    "verify": check_verify,
}


def check(kind: str, text: str, params: dict) -> Verdict:
    """Check one artifact; a malformed artifact fails instead of raising."""
    try:
        return CHECKS[kind](text, params)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return fail(f"malformed {kind} artifact: {type(exc).__name__}: {exc}")
