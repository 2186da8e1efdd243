"""Seeded, deterministic command streams for the benchmark workloads.

A workload is an endless, seeded stream of ``bohrlab`` command lines.  The
program sees only these argv lists; every parameter the artifact checks need
travels next to the argv in :class:`Op`.  Each workload cycles its command
kinds in fixed proportions, so the per-op cost mix (and with it the median
and 90th percentile) does not depend on the seed; the seed only moves the
parameters inside each command.

The first op of every stream is the workload's cold "set-up" op and always
has the same kind, so set-up time is comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterator

# The 18 report names `bohrlab verify --all` writes, in order.
CHECK_NAMES = (
    "schwarz-pick",
    "coefficient-bounds",
    "ruscheweyh-derivatives",
    "dilatation-coefficients",
    "family-deficit-identity",
    "recentred-consistency",
    "recentred-slack-certificate",
    "shape:recentred-slack-increasing",
    "shape:slack-envelope-nonpositive",
    "shape:slack-envelope-increasing",
    "shape:area-coupling-decreasing",
    "shape:family-deficit-decreasing",
    "shape:norm-envelope-concave-increasing",
    "shape:weighted-area-slack",
    "shape:norm-radius-root",
    "shape:harmonic-radius-cap",
    "shape:family-deficit-limit",
    "shape:family-deficit-limit-scaled",
)

SOLVE_THEOREMS = ("B", "A", "1", "2", "3", "4", "corollary")
SWEEP_THEOREMS = ("B", "1", "2", "3", "4")
GAMMA_MAX = 0.9
GAMMA_STRATA = 32  # a power of two


@dataclass(frozen=True)
class Op:
    """One CLI command: its kind (which artifact check applies), its argv
    without ``--out``, the artifact suffix, and the parameters it was built from."""

    kind: str
    argv: tuple[str, ...]
    suffix: str
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """Six-decimal rendering, so argv is short and parses back exactly."""
    return repr(round(x, 6))


def _gamma(rng: random.Random, lo: float = 0.0, hi: float = GAMMA_MAX) -> float:
    return float(_num(rng.uniform(lo, hi)))


def _stratum(j: int) -> int:
    """Bit-reversed j modulo GAMMA_STRATA: every prefix of this order spreads
    evenly over the strata."""
    bits = GAMMA_STRATA.bit_length() - 1
    return int(format(j % GAMMA_STRATA, f"0{bits}b")[::-1], 2)


def _solve(rng: random.Random) -> Iterator[Op]:
    # The radius error grows twentyfold from gamma = 0 to 0.9.  So that every
    # run sees the same spread of gammas per theorem, however many ops it
    # completes, pass j over the theorems draws gamma uniformly from slice
    # _stratum(j) of GAMMA_STRATA equal slices of [0, 0.9].
    for i in count():
        theorem = SOLVE_THEOREMS[i % len(SOLVE_THEOREMS)]
        stratum = _stratum(i // len(SOLVE_THEOREMS))
        argv = ["radius", "--theorem", theorem]
        gamma, k = 0.0, 1.0
        if theorem != "A":
            width = GAMMA_MAX / GAMMA_STRATA
            gamma = _gamma(rng, stratum * width, (stratum + 1) * width)
            argv += ["--gamma", _num(gamma)]
        if theorem == "4":
            k = float(_num(rng.uniform(0.0, 1.0)))
            argv += ["--k", _num(k)]
        yield Op("radius", tuple(argv), ".json", {"theorem": theorem, "gamma": gamma, "k": k})


def _tabulate(rng: random.Random) -> Iterator[Op]:
    for i in count():
        theorem = SWEEP_THEOREMS[i % len(SWEEP_THEOREMS)]
        gamma = _gamma(rng)
        argv = ("sweep", "--theorem", theorem, "--gammas", _num(gamma))
        yield Op("sweep", argv, ".csv", {"theorem": theorem, "gamma": gamma})


# One audit cycle: 3 identity checks, 3 conjecture runs (2 augmented with
# random samples), 2 single-check and 2 full verify runs.
AUDIT_CYCLE = (
    "identity", "conjecture", "verify-one", "identity", "conjecture-augmented",
    "verify-all", "identity", "conjecture-augmented", "verify-one", "verify-all",
)


def _audit(rng: random.Random) -> Iterator[Op]:
    for i in count():
        kind = AUDIT_CYCLE[i % len(AUDIT_CYCLE)]
        seed = str(rng.randrange(2**31))
        if kind == "identity":
            yield Op("identity", ("identity-check", "--seed", seed), ".json")
        elif kind.startswith("conjecture"):
            gamma = _gamma(rng)
            argv = ["conjecture", "--gammas", _num(gamma), "--seed", seed]
            if kind == "conjecture-augmented":
                argv += ["--augment-random-samples", str(rng.randrange(4, 17))]
            yield Op("conjecture", tuple(argv), ".csv", {"gamma": gamma})
        elif kind == "verify-one":
            name = rng.choice(CHECK_NAMES)
            argv = ("verify", "--check", name, "--seed", seed)
            yield Op("verify", argv, ".json", {"checks": [name]})
        else:
            yield Op("verify", ("verify", "--all", "--seed", seed), ".json", {"checks": list(CHECK_NAMES)})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: Callable[[random.Random], Iterator[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve",
            "radius over all seven theorems with seeded gamma and k: bisection over the "
            "extremal family, ~97% in scalar evaluators; where solver-side changes show",
            _solve,
        ),
        Workload(
            "tabulate",
            "sweep B,1,2,3,4 at one seeded gamma: 896 evaluator calls and CSV rows per op, "
            "solver never called; the batched-kernel target, and no change for solver PRs",
            _tabulate,
        ),
        Workload(
            "audit",
            "verify, identity-check and conjecture with seeded seeds: FFT Taylor extraction, "
            "check suite, grid explorer and high q*r scalar calls; guards against tabulate-only tuning",
            _audit,
        ),
    )
}


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of ``workload`` for ``seed``; same seed, same ops."""
    return WORKLOADS[workload].stream(random.Random(f"{workload}:{seed}"))


def first_ops(workload: str, seed: int, n: int) -> list[Op]:
    return list(islice(ops(workload, seed), n))
