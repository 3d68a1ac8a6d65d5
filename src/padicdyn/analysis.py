"""Uniform differentiability mod p at finite depth, through three routes.

A function f is differentiable mod p with unit scale when
f(u + p^s h) = f(u) + p^s h d(u) mod p^(s+1) for all s >= 1 and units h,
for some integer-valued d.  The three routes checked here are the direct
definition sweep, a relation system on van der Put coefficients, and a
divisibility predicate on Mahler coefficients; they must agree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import InputError, InternalCheckError, PreconditionError
from .funcspace import (
    CoefficientSeries,
    PadicFunction,
    index_levels,
    mahler_coefficients,
    powers_of,
)
from .verdict import CriterionVerdict, failing, passing, require_agreement


@dataclass(frozen=True, eq=False)
class UD1Report:
    """The direct sweep's verdict and its read-only array of derivative
    residues d(u) mod p for u < p^depth; None where some f(u + p) - f(u) is
    not divisible by p."""

    verdict: CriterionVerdict
    derived: np.ndarray | None

    def __bool__(self) -> bool:
        return self.verdict.passed


def ud1_window(p: int, depth: int) -> int:
    """Points the direct sweep reads: u + p^s h reaches p^depth + (p-1)p^(depth-1)."""
    return p**depth + (p - 1) * p ** (depth - 1)


# one sweep per function: the report of each function ud1_check has swept,
# for as long as the function lives
_UD1_REPORTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def ud1_check(f: PadicFunction) -> UD1Report:
    """Definition check over the full depth window, at levels s = 1..depth-1.

    The candidate derivative at u is forced by the s = 1, h = 1 congruence;
    h = 1 checks that imply every (u, s, h) decide, and a failure is named
    by the first failing (u, s, h) in u-major, then s, then h order
    (`backends.ud1_table_scan`).  Arguments u + p^s h are evaluated exactly
    (no folding), so a non-Lipschitz input fails here rather than being
    masked.  The report is kept for as long as f lives, so every criterion
    that requires UD1 input reads the same sweep."""
    if f.depth < 2:
        raise InputError("ud1_check needs depth >= 2")
    report = _UD1_REPORTS.get(f)
    if report is None:
        report = _UD1_REPORTS[f] = _ud1_sweep(f)
    return report


def require_ud1(f: PadicFunction, name: str) -> None:
    """Refuse, with the sweep's failing verdict, to run the criterion `name`
    on a map that is not UD1."""
    report = ud1_check(f)
    if not report:
        raise PreconditionError(f"{name} requires a UD1 input", report.verdict)


def _ud1_sweep(f: PadicFunction) -> UD1Report:
    p = f.prime
    values = f.value_array(ud1_window(p, f.depth))
    first, derived = backends.ud1_table_scan(values, p, f.depth)
    if derived is None:
        u = first[0]
        witness = {"u": u, "difference": int(values[u + p] - values[u]) % p**f.depth}
        verdict = failing("ud1-direct", "derivative-integrality", witness=witness, depth=f.depth)
        return UD1Report(verdict, None)
    derived.flags.writeable = False
    if first is None:
        return UD1Report(passing("ud1-direct", depth=f.depth, s_max=f.depth - 1), derived)
    u, s, h = first
    mod = p ** (s + 1)
    shift = p**s * h
    witness = {"u": u, "s": s, "h": h, "lhs": int(values[u + shift]) % mod,
               "rhs": (int(values[u]) + shift * int(derived[u])) % mod}
    return UD1Report(failing("ud1-direct", "congruence", witness=witness, depth=f.depth), derived)


def vdp_ud1_relations_check(series: CoefficientSeries) -> CriterionVerdict:
    """Coefficient-relation route on van der Put terms.

    Within level s the terms must scale linearly in the leading digit,
    B_{r + l p^s} = l B_{r + p^s} mod p^(s+1); across levels the normalized
    terms must reproduce one residue per base point,
    B_{r + p^s}/p^s = B_{(r mod p) + p}/p mod p.  Every level s >= 1 that
    the series carries is checked: p^(s+1) <= length and s < exponent.
    """
    if series.kind != "vdp":
        raise InputError("vdp_ud1_relations_check expects a vdp series")
    p = series.prime
    s_max = series.top_level
    if s_max < 1:
        raise InputError("series too short or too coarse for any level s >= 1")
    name = "ud1-vdp-relations"
    base_norms = (series.terms[p : 2 * p] // p) % p  # B_{r + p}/p mod p, one per r < p
    for s in range(1, s_max + 1):
        step = p**s
        # block[l - 1, r] = B_{r + l p^s}; a column per base r holds its
        # conditions in the order tried: normalization of the reference
        # B_{r + p^s}, level-linearity for l = 2..p-1, cross-level (met at s = 1)
        block = series.terms[step : p * step].reshape(p - 1, step)
        norms = (block[0] // step) % p
        fails = np.empty((p, step), dtype=bool)
        fails[0] = block[0] % step != 0
        fails[1:-1] = (block[1:] - np.arange(2, p)[:, None] * block[0]) % (step * p) != 0
        fails[-1] = (norms.reshape(-1, p) != base_norms).ravel()
        bad = fails.any(axis=0)
        if not bad.any():
            continue
        r = int(bad.argmax())
        row, ref = int(fails[:, r].argmax()), int(block[0, r])
        if row == 0:
            condition, witness = "normalization", {"index": r + step, "term": ref}
        elif row < p - 1:
            condition = "level-linearity"
            witness = {"r": r, "s": s, "l": row + 1, "term": int(block[row, r]), "reference": ref}
        else:
            condition = "cross-level"
            witness = {"r": r, "s": s, "normalized": int(norms[r]), "base": int(base_norms[r % p])}
        return failing(name, condition, witness=witness, depth=series.exponent)
    return passing(name, depth=series.exponent, s_max=s_max)


def mahler_ud1_valuations(count: int, p: int, exponent: int):
    """e(n) and the valuation the Mahler predicate requires of a_n, for
    n < count: none below p; else, with s = e(n) and d the leading base-p
    digit of n, s + 1 when d >= 2 (odd p) or when s >= 2 (any p), and the
    Lipschitz floor s otherwise; at most exponent."""
    s, power = index_levels(count, p)  # p^s <= n < p^(s+1)
    digit = np.arange(count) // power
    required = np.minimum(s + ((s >= 2) | ((p > 2) & (digit >= 2))), exponent)
    required[:p] = 0
    return s, required


def mahler_ud1_predicate(series: CoefficientSeries) -> CriterionVerdict:
    """Divisibility route on Mahler terms: v_p(a_n) at least the valuation
    `mahler_ud1_valuations` requires, for every term."""
    if series.kind != "mahler":
        raise InputError("mahler_ud1_predicate expects a mahler series")
    p = series.prime
    name = "ud1-mahler-predicate"
    s, required = mahler_ud1_valuations(len(series), p, series.exponent)
    bad = series.terms % powers_of(p, required, series.terms.dtype) != 0
    if not bad.any():
        return passing(name, depth=series.exponent, checked_terms=len(series))
    n = int(bad.argmax())
    need = int(required[n])
    condition = "lipschitz" if need <= s[n] else "leading-digit"
    witness = {"n": n, "term": series.term(n), "required_valuation": need}
    return failing(name, condition, witness=witness, depth=series.exponent)


def mahler_ud1_route(f: PadicFunction, count: int) -> CriterionVerdict:
    """The Mahler predicate on a_0..a_{count-1} of f mod p^depth, from the
    differences of f(0..count-1) alone.  The difference table stops soon
    after the first term that fails it, so a failing verdict costs the terms
    up to its witness; a passing one reads all count terms."""
    _, required = mahler_ud1_valuations(count, f.prime, f.depth)
    floors = powers_of(f.prime, required, backends.int_dtype(f.prime**f.depth, 1))
    return mahler_ud1_predicate(mahler_coefficients(f, count=count, floors=floors))


def ud1_equivalence_crosscheck(f: PadicFunction):
    """The verdicts (direct, vdp, mahler) of the three routes, which must
    agree; so must the direct sweep's derivative residues and the
    normalized level-1 van der Put terms, class by class, on a UD1 map.
    Raises InternalCheckError (exit 3) naming the routes that disagree.

    A failing direct witness reads f at no point past m = u + p^s h (u + p
    for (u, 0, 0)), and sum_{n<=m} a_n C(x, n) = f on 0..m would pass it if
    a_0..a_m all met the predicate; so the Mahler route reads those first,
    and all p^depth terms only if they do."""
    report = ud1_check(f)
    vdp = f.vdp_window
    vdp_verdict = vdp_ud1_relations_check(vdp)
    p, size = f.prime, f.prime**f.depth
    w = report.verdict.witness or {"u": size}  # a passing sweep bounds no term
    count = min(w["u"] + p ** w.get("s", 1) * w.get("h", 1) + 1, size)
    mahler_verdict = mahler_ud1_route(f, count)
    if mahler_verdict.passed and count < size:
        mahler_verdict = mahler_ud1_route(f, size)
    u = _derived_branch_mismatch(report.derived, vdp) if report.verdict.passed else None
    require_agreement("differentiability", report.verdict, vdp_verdict, mahler_verdict)
    if u is not None:
        raise InternalCheckError(
            f"derivative residue routes disagree at u={u}: direct sweep d(u)={report.derived[u]}, "
            f"van der Put B_{u % p + p}/p={vdp.normals(p, 2 * p)[u % p] % p}"
        )
    return report.verdict, vdp_verdict, mahler_verdict


def _derived_branch_mismatch(derived: np.ndarray, vdp: CoefficientSeries) -> int | None:
    """The first u where d(u) differs from the normalized branch term
    B_{(u mod p) + p}/p mod p, or None.  Branch r is normalized when class r
    is first compared (at u = r), so a term not divisible by p raises there
    unless an earlier class already disagreed."""
    p = vdp.prime
    branch_terms = vdp.terms[p : 2 * p]
    unnormal = branch_terms % p != 0
    # bad[j, r]: d(j p + r) differs from branch r's residue
    bad = derived.reshape(-1, p) != (branch_terms // p) % p
    head = unnormal | bad[0]
    if unnormal[head.argmax()]:
        raise vdp.normalization_error(int(head.argmax()) + p)
    return int(bad.argmax()) if bad.any() else None
