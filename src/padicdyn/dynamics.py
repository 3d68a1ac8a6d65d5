"""Finite-level dynamics: cycle structure, measure preservation, ergodicity.

Measure preservation at depth means the reduced map is a bijection of
Z/p^s for every level s; ergodicity means it is a single cycle at every
level.  Measure preservation is decided through coefficient criteria,
ergodicity by the orbit walk, which the criteria cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import backends
from .errors import InputError, InternalCheckError
from .funcspace import CoefficientSeries, PadicFunction
from .funcspace import mahler_coefficients
from .verdict import CriterionVerdict, checklist_verdict, failing, passing, require_agreement
from .analysis import require_ud1, ud1_check


@dataclass(frozen=True)
class CycleReport:
    """Cycle decomposition of the reduced map on Z/p^exponent."""

    prime: int
    exponent: int
    is_permutation: bool
    transitive: bool
    cycles: tuple[tuple[int, ...], ...]
    collision: dict[str, int] | None = None

    @property
    def size(self) -> int:
        return self.prime**self.exponent


def cycle_structure(f: PadicFunction, k: int) -> CycleReport:
    table = f.reduce_map(k)
    size = len(table)
    seen = [False] * size
    preimage: dict[int, int] = {}
    collision = None
    for x, y in enumerate(table):
        if y in preimage:
            collision = {"image": y, "first": preimage[y], "second": x}
            break
        preimage[y] = x
    is_perm = collision is None
    cycles = []
    if is_perm:
        for start in range(size):
            x, cycle = start, []
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = table[x]
            if cycle:
                cycles.append(tuple(cycle))
    return CycleReport(
        f.prime, k, is_perm, is_perm and len(cycles) == 1, tuple(cycles), collision
    )


def orbit_of(f: PadicFunction, k: int) -> tuple[int, ...]:
    """Forward orbit of 0 mod p^k, up to (and excluding) the first repeat, a
    prefix of `orbit_mod(k)`: the repeat comes after as many steps as the
    walk has distinct values."""
    walk = f.orbit_mod(k).tolist()
    return tuple(walk[: len(set(walk))])


def transitive_mod(f: PadicFunction, k: int) -> CriterionVerdict:
    """A single cycle mod p^k: the walk of 0 first returns to 0 mod p^k after
    p^k steps.  Only a failure runs `cycle_structure`, for its witness."""
    returns = f.orbit_mod(k)[1:] == 0
    if returns[-1] and returns.argmax() == len(returns) - 1:
        return passing("transitive-mod", depth=k, cycle_length=len(returns))
    report = cycle_structure(f, k)
    if not report.is_permutation:
        return failing("transitive-mod", "not-bijective", witness=report.collision, depth=k)
    witness = {"cycle_count": len(report.cycles), "orbit_of_zero_length": len(report.cycles[0])}
    return failing("transitive-mod", "multiple-cycles", witness=witness, depth=k)


def ergodic_oracle(f: PadicFunction) -> CriterionVerdict:
    """Transitivity at every level 1..depth; the brute-force reference."""
    for k in range(1, f.depth + 1):
        verdict = transitive_mod(f, k)
        if not verdict:
            return failing(
                "ergodic-oracle", "transitivity", witness={"level": k}, depth=f.depth,
                inner=verdict.to_json_dict(),
            )
    return passing("ergodic-oracle", depth=f.depth)


# -- measure preservation ---------------------------------------------


def measure_preserving_vdp(series: CoefficientSeries) -> CriterionVerdict:
    """Bijectivity at all levels from normalized van der Put terms.

    Level 0: the residues b_0..b_{p-1} must be a complete system mod p.
    Level s >= 1: for each base k < p^s the residues b_{k + l p^s} over
    l = 1..p-1 must be distinct and nonzero mod p, at every level whose
    terms the series holds (p^(s+1) <= its length) with a residue mod p
    left (s < its exponent).
    """
    if series.kind != "vdp":
        raise InputError("measure_preserving_vdp expects a vdp series")
    p = series.prime
    name = "measure-preserving-vdp"
    if len(series) < p:
        raise InputError("series too short for the level-0 residue test")
    base = (series.terms[:p] % p).tolist()
    if sorted(base) != list(range(p)):
        return failing(
            name, "complete-residues", witness={"residues": base}, depth=series.exponent
        )
    s_max = series.top_level
    for s in range(1, s_max + 1):
        step = p**s
        # block[k, l - 1] = B_{k + l p^s}: row k holds base k's branch terms
        block = series.terms[step : p * step].reshape(p - 1, step).T
        unnormal = block % step != 0
        residues = (block // step) % p
        ordered = np.sort(residues, axis=1)
        broken = (ordered[:, 0] == 0) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        bad = unnormal.any(axis=1) | broken
        if bad.any():
            k = int(bad.argmax())
            if unnormal[k].any():  # base k is judged at its first unnormal term, if any
                raise series.normalization_error(k + (int(unnormal[k].argmax()) + 1) * step)
            return failing(
                name,
                "branch-residues",
                witness={"s": s, "k": k, "residues": residues[k].tolist()},
                depth=series.exponent,
            )
    return passing(name, depth=series.exponent, s_max=s_max)


# the p = 2 criteria for UD1 maps as check-lists of (label, wanted value), on
# normalized van der Put terms b_0..b_3 and on Mahler terms a_1..a_3
_UD_VDP_P2 = (("b0+b1", 1), ("b2", 1), ("b3", 1))
_UD_MAHLER_P2 = (("a1-odd", 1), ("a2-mod4", 0), ("a3-mod4", 0))


def measure_preserving_ud_p2(f: PadicFunction) -> CriterionVerdict:
    """p = 2 criterion for differentiable-mod-2 maps: three parity conditions
    on normalized van der Put terms: b_0 + b_1 odd, b_2 odd, b_3 odd."""
    if f.prime != 2:
        raise InputError("measure_preserving_ud_p2 is specific to p = 2")
    if f.depth < 2:
        raise InputError("need depth >= 2")
    name = "measure-preserving-ud-p2"
    require_ud1(f, name)
    b = f.vdp_window.normals(0, 4).tolist()
    return checklist_verdict(name, _UD_VDP_P2, ((b[0] + b[1]) % 2, b[2] % 2, b[3] % 2), f.depth)


def measure_preserving_ud_p2_mahler(f: PadicFunction) -> CriterionVerdict:
    """Mahler-side equivalent of the p = 2 criterion:
    a_1 = 1 mod 2, a_2 = 0 mod 4, a_3 = 0 mod 4."""
    if f.prime != 2:
        raise InputError("measure_preserving_ud_p2_mahler is specific to p = 2")
    if f.depth < 2:
        raise InputError("need depth >= 2")
    name = "measure-preserving-ud-p2-mahler"
    require_ud1(f, name)
    a = mahler_coefficients(f, count=4).term_list
    return checklist_verdict(name, _UD_MAHLER_P2, (a[1] % 2, a[2] % 4, a[3] % 4), f.depth)


def lambda_rows(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (p, p) int64 arrays mod p: rows i of the lambda form and of C(i, .).

    lambda(i, n) = (C(i + p, n) - C(i, n)) / p is an integer (Lucas).  Row 0
    is lambda(0, 0) = 0 and lambda(0, n) = C(p, n) / p = (-1)^(n-1) / n mod p
    for n >= 1, against C(0, .) = 1, 0, 0, ...; both obey Pascal's rule in
    i, so `backends.pascal_rows` builds each from its row 0.
    """
    lam = [0] + [pow(n, -1, p) if n % 2 else p - pow(n, -1, p) for n in range(1, p)]
    return tuple(backends.pascal_rows(first, p, p).astype(np.int64)
                 for first in (lam, [1] + [0] * (p - 1)))


def measure_preserving_ud_odd(f: PadicFunction) -> CriterionVerdict:
    """Odd-p criterion for differentiable-mod-p maps.

    (i) f(0..p-1) is a complete residue system mod p; (ii) every normalized
    branch term b_{i+p} is a unit mod p.  The same residues are recomputed
    from Mahler terms through the lambda form and must agree.
    """
    p = f.prime
    if p == 2:
        raise InputError("measure_preserving_ud_odd needs an odd prime")
    if f.depth < 2:
        raise InputError("need depth >= 2")
    name = "measure-preserving-ud-odd"
    require_ud1(f, name)
    # evaluated point by point, not read from the value array: this route
    # cross-checks the vdp verdict, whose series the array gives
    residues = [f.evaluate(i, 1) for i in range(p)]
    if sorted(residues) != list(range(p)):
        return failing(
            name, "complete-residues", witness={"residues": residues}, depth=f.depth
        )
    c = (mahler_coefficients(f, count=2 * p).normals(0, 2 * p) % p).astype(np.int64)
    branch = (f.vdp_window.normals(p, 2 * p) % p).tolist()
    # b_i = sum_n lambda(i, n) c_n + sum_n C(i, n) c_(p+n) mod p
    via_lambda = (np.hstack(lambda_rows(p)) @ c % p).tolist()
    for i, (lam, b) in enumerate(zip(via_lambda, branch)):
        if lam != b:
            raise InternalCheckError(
                f"lambda form disagrees with branch term at i={i}: {lam} vs {b}"
            )
        if b == 0:
            return failing(
                name, "branch-unit", witness={"i": i, "b": b}, depth=f.depth
            )
    return passing(name, depth=f.depth)


# -- ergodicity -------------------------------------------------------


def ergodic_conditions(f: PadicFunction) -> dict[str, Any]:
    """The three-part finite-level ergodicity bundle for UD1 maps, at levels
    s = 1..depth-1.

    (1) transitivity mod p; (2) the orbit of 0 escapes: f^(p^s)(0) != 0 mod
    p^(s+1); (3) the level product of normalized branch terms is 1 mod p.
    On a UD1 map b_{k + l p^s} = l d(k) mod p, so (1) and (3) imply measure
    preservation at every level, which the bundle does not evaluate.  A map
    that is not 1-Lipschitz is refused by (1), with `require_lipschitz`'s
    PreconditionError, after any NormalizationError of (3).
    """
    p = f.prime
    s_max = f.depth - 1
    if s_max < 1:
        raise InputError("ergodic_conditions needs depth >= 2")
    series = f.vdp_window

    products = []
    for s in range(1, s_max + 1):
        # the product of the residues b_{j + p^s} mod p, from how often each occurs
        counts = np.bincount((series.normals(p**s, 2 * p**s) % p).astype(np.int64), minlength=p)
        acc = 1
        for r in np.flatnonzero(counts).tolist():
            acc = acc * pow(r, int(counts[r]), p) % p
        products.append(acc)

    out: dict[str, Any] = {"transitive_mod_p": transitive_mod(f, 1)}
    walk = f.orbit_mod(f.depth)  # f^n(0) mod p^(s+1) is this walk mod p^(s+1)
    residues = [int(walk[p**s]) % p ** (s + 1) for s in range(1, s_max + 1)]
    returned = [s for s, y in enumerate(residues, 1) if y == 0]
    out["orbit"] = failing(
        "orbit-escape", "returns-to-zero", witness={"s": returned[0]}, depth=s_max,
        residues=residues,
    ) if returned else passing("orbit-escape", depth=s_max, residues=residues)

    not_one = [s for s, acc in enumerate(products, 1) if acc != 1]
    out["product"] = failing(
        "branch-product", "not-unit", witness={"s": not_one[0], "product": products[not_one[0] - 1]},
        depth=s_max, products=products,
    ) if not_one else passing("branch-product", depth=s_max, products=products)

    combined = all(v.passed for v in out.values())
    out["combined"] = CriterionVerdict(
        combined, "ergodic-conditions", None if combined else "see-parts", depth=s_max
    )
    return out


def transitivity_threshold(p: int) -> int:
    """Depth at which transitivity decides ergodicity of a polynomial on Z_p."""
    return 3 if p <= 3 else 2


@dataclass(frozen=True)
class ErgodicityDecision:
    prime: int
    ergodic: bool
    method: str
    scope: str  # "Z_p" where a theorem lifts the verdict, else "to-depth"
    evidence: dict[str, Any]

    def to_json_dict(self) -> dict:
        return {
            "p": self.prime,
            "ergodic": self.ergodic,
            "method": self.method,
            "scope": self.scope,
            "evidence": {k: v.to_json_dict() for k, v in self.evidence.items()},
        }


def decide_ergodicity(f: PadicFunction) -> ErgodicityDecision:
    """Ergodicity by the orbit oracle, for every kind: a polynomial is walked at
    depth max(depth, mu) and decided on Z_p (transitivity mod p^mu lifts to
    every level), any other kind to its depth.  The level conditions on UD1
    input and transitivity mod p^mu on a polynomial must agree with the walk."""
    mu = transitivity_threshold(f.prime)
    polynomial = f.kind == "polynomial"
    g = PadicFunction.from_polynomial(f.payload, f.prime, mu) if polynomial and f.depth < mu else f
    oracle = ergodic_oracle(g)
    evidence = {"oracle": oracle}
    # the level conditions need a level s >= 1, so depth >= 2
    checks = [ergodic_conditions(g)["combined"]] if g.depth >= 2 and ud1_check(g) else []
    if polynomial:
        evidence["threshold"] = transitive_mod(g, mu)
        checks.append(evidence["threshold"])
    require_agreement("ergodicity", oracle, *checks)
    return ErgodicityDecision(
        f.prime, oracle.passed, "exhaustive-to-depth", "Z_p" if polynomial else "to-depth", evidence
    )
