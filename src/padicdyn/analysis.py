"""Uniform differentiability mod p at finite depth, through three routes.

A function f is differentiable mod p with unit scale when
f(u + p^s h) = f(u) + p^s h d(u) mod p^(s+1) for all s >= 1 and units h,
for some integer-valued d.  The three routes checked here are the direct
definition sweep, a relation system on van der Put coefficients, and a
divisibility predicate on Mahler coefficients; they must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backends
from .arith import p_digits
from .errors import InputError, NormalizationError
from .funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from .verdict import CriterionVerdict, failing, passing


@dataclass(frozen=True)
class DerivedFunction:
    """Pointwise derivative residues d(u) mod p^exponent for u in the window."""

    prime: int
    exponent: int
    values: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.prime,
            "exponent": self.exponent,
            "values": [str(v) for v in self.values],
        }


@dataclass(frozen=True)
class UD1Report:
    verdict: CriterionVerdict
    derived: DerivedFunction | None

    def __bool__(self) -> bool:
        return self.verdict.passed


def ud1_window(p: int, depth: int) -> int:
    """Points the direct sweep reads: u + p^s h reaches p^depth + (p-1)p^(depth-1)."""
    return p**depth + (p - 1) * p ** (depth - 1)


def ud1_check(f: PadicFunction, s_max: int | None = None) -> UD1Report:
    """Definition sweep over the full depth window.

    The candidate derivative at u is forced by the s = 1, h = 1 congruence;
    the sweep then verifies every (u, s, h) against it and reports the first
    failure in u-major, then s, then h order.  Arguments u + p^s h are
    evaluated exactly (no folding), so a non-Lipschitz input fails here
    rather than being masked.
    """
    if f.depth < 2:
        raise InputError("ud1_check needs depth >= 2")
    if s_max is None:
        s_max = f.depth - 1
    if not 1 <= s_max <= f.depth - 1:
        raise InputError(f"s_max {s_max} outside 1..{f.depth - 1}")
    p = f.prime
    window = p**f.depth
    values = f.value_array(ud1_window(p, f.depth))
    _, first, derived = backends.ud1_table_scan(values[None, :], p, f.depth, s_max)
    u, s, h = first[0].tolist()
    if s == 0:
        return UD1Report(
            failing(
                "ud1-direct",
                "derivative-integrality",
                witness={"u": u, "difference": int(values[u + p] - values[u]) % window},
                depth=f.depth,
            ),
            None,
        )
    derived = DerivedFunction(p, 1, tuple(derived[0].tolist()))
    if u >= 0:
        mod = p ** (s + 1)
        shift = p**s * h
        lhs = int(values[u + shift]) % mod
        rhs = (int(values[u]) + shift * derived.values[u]) % mod
        return UD1Report(
            failing(
                "ud1-direct",
                "congruence",
                witness={"u": u, "s": s, "h": h, "lhs": lhs, "rhs": rhs},
                depth=f.depth,
            ),
            derived,
        )
    return UD1Report(passing("ud1-direct", depth=f.depth, s_max=s_max), derived)


def vdp_ud1_relations_check(
    series: CoefficientSeries, s_max: int | None = None
) -> CriterionVerdict:
    """Coefficient-relation route on van der Put terms.

    Within level s the terms must scale linearly in the leading digit,
    B_{r + l p^s} = l B_{r + p^s} mod p^(s+1); across levels the normalized
    terms must reproduce one residue per base point,
    B_{r + p^s}/p^s = B_{(r mod p) + p}/p mod p.
    """
    if series.kind != "vdp":
        raise InputError("vdp_ud1_relations_check expects a vdp series")
    p = series.prime
    limit = 1
    while p ** (limit + 2) <= len(series):
        limit += 1
    if s_max is None:
        s_max = min(limit, series.exponent - 1)
    if s_max < 1:
        raise InputError("series too short or too coarse for any level s >= 1")
    if p ** (s_max + 1) > len(series) or s_max + 1 > series.exponent:
        raise InputError(f"s_max {s_max} exceeds what the series supports")
    name = "ud1-vdp-relations"
    for s in range(1, s_max + 1):
        mod = p ** (s + 1)
        step = p**s
        for r in range(step):
            try:
                ref_norm = series.normalized(r + step, 1)
            except NormalizationError:
                return failing(
                    name,
                    "normalization",
                    witness={"index": r + step, "term": series.term(r + step)},
                    depth=series.exponent,
                )
            ref = series.term(r + step)
            for ell in range(2, p):
                idx = r + ell * step
                if (series.term(idx) - ell * ref) % mod != 0:
                    return failing(
                        name,
                        "level-linearity",
                        witness={"r": r, "s": s, "l": ell,
                                 "term": series.term(idx), "reference": ref},
                        depth=series.exponent,
                    )
            if s >= 2:
                base_norm = series.normalized((r % p) + p, 1)
                if ref_norm != base_norm:
                    return failing(
                        name,
                        "cross-level",
                        witness={"r": r, "s": s,
                                 "normalized": ref_norm, "base": base_norm},
                        depth=series.exponent,
                    )
    return passing(name, depth=series.exponent, s_max=s_max)


def mahler_ud1_predicate(series: CoefficientSeries) -> CriterionVerdict:
    """Divisibility route on Mahler terms.

    With s = e(n) and d the leading base-p digit of n, a term needs
    v_p(a_n) >= s + 1 when d >= 2 (odd p) or when s >= 2 (any p), and the
    Lipschitz floor v_p(a_n) >= s otherwise.
    """
    if series.kind != "mahler":
        raise InputError("mahler_ud1_predicate expects a mahler series")
    p = series.prime
    name = "ud1-mahler-predicate"
    s, power = 0, 1  # p^s <= n < p^(s+1)
    for n, term in enumerate(series.terms):
        if n == power * p:
            s, power = s + 1, power * p
        if n < p:
            continue
        lead = n // power
        if s >= 2 or (p > 2 and lead >= 2):
            required = s + 1
        else:
            required = s
        required = min(required, series.exponent)
        if term % p**required != 0:
            condition = "lipschitz" if required <= s else "leading-digit"
            return failing(
                name,
                condition,
                witness={"n": n, "term": term, "required_valuation": required},
                depth=series.exponent,
            )
    return passing(name, depth=series.exponent, checked_terms=len(series))


def ud1_equivalence_crosscheck(
    f: PadicFunction, s_max: int | None = None, vdp: CoefficientSeries | None = None
) -> dict:
    """Run all three routes and report whether they agree.

    Also checks that the direct-sweep derivative residues match the
    normalized level-1 van der Put terms class by class.  vdp, when given,
    is f's full-length van der Put series, so a caller that already holds
    it does not extract it again.
    """
    report = ud1_check(f, s_max=s_max)
    count = f.prime**f.depth
    if vdp is None:
        vdp = vdp_coefficients(f, count=count)
    elif (vdp.kind, vdp.prime, vdp.exponent, len(vdp)) != ("vdp", f.prime, f.depth, count):
        raise InputError("vdp must be the full-length van der Put series of f")
    mahler = mahler_coefficients(f, count=count)
    vdp_verdict = vdp_ud1_relations_check(vdp, s_max=s_max)
    mahler_verdict = mahler_ud1_predicate(mahler)
    agree = report.verdict.passed == vdp_verdict.passed == mahler_verdict.passed
    derived_consistent = None
    if report.verdict.passed and report.derived is not None:
        derived_consistent = True
        branch: dict[int, int] = {}  # residue class r -> normalized B_{r+p}
        for u, d in enumerate(report.derived.values):
            r = u % f.prime
            if r not in branch:
                branch[r] = vdp.normalized(r + f.prime, 1)
            if d != branch[r]:
                derived_consistent = False
                break
    return {
        "direct": report,
        "vdp": vdp_verdict,
        "mahler": mahler_verdict,
        "agree": agree,
        "derived_consistent": derived_consistent,
    }


def required_ud1_valuation(n: int, p: int) -> int:
    """Minimal v_p(a_n) the Mahler route demands at index n."""
    if n < p:
        return 0
    digits = p_digits(n, p)
    s = len(digits) - 1
    if s >= 2 or (p > 2 and digits[-1] >= 2):
        return s + 1
    return s


def random_ud1_mahler_series(
    p: int, depth: int, count: int, rng
) -> CoefficientSeries:
    """Uniform sample from the Mahler coefficient vectors admitted by the
    divisibility route, at precision p^depth."""
    mod = p**depth
    terms = []
    for n in range(count):
        r = min(required_ud1_valuation(n, p), depth)
        terms.append(p**r * rng.randrange(mod // p**r))
    return CoefficientSeries("mahler", p, depth, tuple(terms))
