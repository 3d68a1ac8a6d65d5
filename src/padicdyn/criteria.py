"""Closed-form ergodicity criteria per prime, and the p >= 5 generator.

For p = 2 the criteria are congruences on the first four Mahler or van der
Put coefficients (with the special cubic form for degree-3 polynomials mod
8).  For p = 3 they are selector-plus-condition case tables on nine
coefficients, shipped in data/ergodic_cases_p3.txt.  For p >= 5 ergodicity
reduces to transitivity mod p, a unit branch product, and the valuation of
the p-th return to 0; a generator solves for coefficient vectors hitting
prescribed reductions and a linear form predicts the third condition.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import binomial, inverse_mod, require_prime
from .backends import mahler_batch
from .errors import InputError, InternalCheckError
from .funcspace import (
    CoefficientSeries,
    PadicFunction,
    index_levels,
    mahler_coefficients,
    parse_ints,
    vdp_coefficients,
)
from .analysis import require_ud1
from .dynamics import ErgodicityDecision, lambda_rows, transitive_mod, transitivity_threshold
from .verdict import CriterionVerdict, checklist_verdict, failing, passing, require_agreement

# ---------------------------------------------------------------------
# p = 2
# ---------------------------------------------------------------------

_LISTP2 = tuple(
    tuple(form) + (0,) * (3 - len(form) + 1)
    for d in (1, 3, 5, 7)
    for form in ((d, 1), (d, 5), (d, 3, 2), (d, 7, 2))
)


def ergodic_cubic_catalog_p2() -> tuple[tuple[int, int, int, int], ...]:
    """The sixteen ergodic cubic forms mod 8, constant coefficient first."""
    return _LISTP2


def larin_transitive_mod8(coeffs: Sequence[int]) -> CriterionVerdict:
    """Ergodicity of an integer cubic on Z_2 from its coefficients
    (d, c, b, a) for a x^3 + b x^2 + c x + d: the one-row case of
    `larin_transitive_mod8_rows`."""
    coeffs = tuple(int(x) % 8 for x in coeffs)
    if len(coeffs) > 4:
        raise InputError("larin_transitive_mod8 expects a cubic (4 coefficients)")
    values = larin_transitive_mod8_rows([(coeffs + (0, 0, 0, 0))[:4]])[1][0]
    return checklist_verdict("cubic-ergodic-p2", _LARIN_P2, values.tolist())


# The p = 2 criteria in row-wise form: each row is the first four terms of
# one series or coefficients of one cubic (values mod 8 suffice), and each
# criterion is a list of checks, tried in order, of a value computed from the
# row against the value it must take.  Returns (first, values): first[i] is
# the index of row i's first failing check, or -1 when every check holds.

_LARIN_P2 = (("a-mod4", 0), ("b-mod2", 0), ("b+c-mod4", 1), ("d-mod2", 1))

_MERG_P2 = (("a0-mod2", 1), ("a1-mod4", 1), ("a2-mod4", 0), ("a3-mod8", 0))

_VERG_P2 = (("normalization", 0), ("b0-mod2", 1), ("b0+b1-mod4", 3),
            ("b2-mod2", 1), ("b2+b3-mod4", 2))


def _first_failing(values: np.ndarray, checks) -> np.ndarray:
    bad = values != np.array([want for _, want in checks])
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def larin_transitive_mod8_rows(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """a = 0 (4), b = 0 (2), b + c = 1 (4), d = 1 (2) on cubics given as
    rows (d, c, b, a), constant first, row by row."""
    d, c, b, a = (np.asarray(coeffs)[:, :4] % 8).T
    values = np.column_stack([a % 4, b % 2, (b + c) % 4, d % 2])
    return _first_failing(values, _LARIN_P2), values


def mahler_ergodic_p2_rows(terms) -> tuple[np.ndarray, np.ndarray]:
    """a_0 = 1 (2), a_1 = 1 (4), a_2 = 0 (4), a_3 = 0 (8), row by row."""
    values = np.asarray(terms)[:, :4] % np.array([2, 4, 4, 8])
    return _first_failing(values, _MERG_P2), values


def vdp_ergodic_p2_rows(terms) -> tuple[np.ndarray, np.ndarray]:
    """b_0 = 1 (2), b_0 + b_1 = 3 (4), b_2 = 1 (2), b_2 + b_3 = 2 (4) on
    normalized terms b_m = B_m / 2^e(m), row by row; the first check is that
    B_2 and B_3 are even, so that b_2 and b_3 exist."""
    terms = np.asarray(terms)[:, :4]
    b = (terms // index_levels(4, 2)[1]) % 4
    values = np.column_stack([
        (terms[:, 2:] % 2 != 0).any(axis=1),
        b[:, 0] % 2,
        (b[:, 0] + b[:, 1]) % 4,
        b[:, 2] % 2,
        (b[:, 2] + b[:, 3]) % 4,
    ])
    return _first_failing(values, _VERG_P2), values


def _criterion_terms(kind: str, p: int, count: int, series: CoefficientSeries) -> np.ndarray:
    """The first count terms of series, which the p = 2 or p = 3 criterion on
    the kind reads; refused unless series is of that kind over p, with at
    least count terms known mod p^3."""
    if series.kind != kind or series.prime != p:
        raise InputError(f"{kind}_ergodic_p{p} expects a {kind} series over p={p}")
    if len(series) < count or series.exponent < 3:
        raise InputError(f"need at least {count} terms at precision {p}^3")
    return series.terms[:count]


def _p2_verdict(kind, series, rows, checks) -> CriterionVerdict:
    """The verdict on one series: the one-row case of a row-wise criterion."""
    values = rows(_criterion_terms(kind, 2, 4, series)[None, :])[1][0].tolist()
    name = f"{kind}-ergodic-p2"
    if checks[0][0] == "normalization" and values[0]:  # B_2 or B_3 is odd
        m = 2 if series.term(2) % 2 else 3
        witness = {"error": str(series.normalization_error(m))}
        return failing(name, "normalization", witness=witness, depth=series.exponent)
    return checklist_verdict(name, checks, values, series.exponent)


def mahler_ergodic_p2(series: CoefficientSeries) -> CriterionVerdict:
    """Ergodicity on Z_2 from raw Mahler terms:
    a_0 = 1 (2), a_1 = 1 (4), a_2 = 0 (4), a_3 = 0 (8)."""
    return _p2_verdict("mahler", series, mahler_ergodic_p2_rows, _MERG_P2)


def vdp_ergodic_p2(series: CoefficientSeries) -> CriterionVerdict:
    """Ergodicity on Z_2 from normalized van der Put terms:
    b_0 = 1 (2), b_0 + b_1 = 3 (4), b_2 = 1 (2), b_2 + b_3 = 2 (4)."""
    return _p2_verdict("vdp", series, vdp_ergodic_p2_rows, _VERG_P2)


# ---------------------------------------------------------------------
# p = 3 case tables
# ---------------------------------------------------------------------


@functools.cache
def _case_tables() -> dict[str, dict]:
    """Each case table of data/ergodic_cases_p3.txt as {selector: (case,
    conditions)}: the case whose selector, residues mod 3, is the key, and
    its conditions (const, coefs), each of which must leave const +
    coefs . variables nonzero mod 9.  Refused unless each table has eight
    lines with eight distinct selectors."""
    text = importlib.resources.files("padicdyn").joinpath("data/ergodic_cases_p3.txt")
    lines = {}
    for line in map(str.strip, text.read_text().splitlines()):
        if line and not line.startswith("#"):
            table, case, selector, *conditions = line.split("|")
            conditions = [(int(const), tuple(map(int, coefs.split(","))))
                          for const, coefs in (c.split(":") for c in conditions)]
            lines.setdefault(table, []).append((tuple(map(int, selector.split(","))),
                                                (case, conditions)))
    tables = {table: dict(cases) for table, cases in lines.items()}
    for table in ("deg8", "ergbm", "ergbm2"):
        if len(lines.get(table, ())) != 8 or len(tables[table]) != 8:
            raise InternalCheckError(f"case table {table} needs 8 cases with distinct selectors")
    return tables


def _case_verdict(name: str, table: str, selector: list[int], variables: list[int]) -> CriterionVerdict:
    """A case table's verdict: no case matches the selector (mod 3), a
    condition of the matched case vanishes mod 9 on the variables, or the
    case passes."""
    found = _case_tables()[table].get(tuple(selector))
    if found is None:
        return failing(name, "no-case", witness={"selector": selector})
    case, conditions = found
    for j, (const, coefs) in enumerate(conditions, start=1):
        if (const + sum(k * x for k, x in zip(coefs, variables))) % 9 == 0:
            return failing(name, f"case-{case}-cond{j}", witness={"selector": selector, "value": 0})
    return passing(name, case=case)


def deg8_minimal_p3(alphas: Sequence[int]) -> CriterionVerdict:
    """Ergodicity on Z_3 of a degree <= 8 integer polynomial: the deg8 table
    on alpha_i mod 9 with selector [alpha_0, A1, A2, alpha_1, D1, D2] mod 3,
    where A1 = alpha_1 + alpha_3 + alpha_5 + alpha_7, A2 = alpha_2 + alpha_4
    + alpha_6 + alpha_8, D1 = sum i alpha_i and D2 = sum (-1)^(i-1) i alpha_i."""
    a = [int(x) % 9 for x in alphas]
    if len(a) > 9:
        raise InputError("deg8_minimal_p3 expects at most 9 coefficients")
    a += [0] * (9 - len(a))
    selector = [x % 3 for x in (a[0], sum(a[1::2]), sum(a[2::2]), a[1],
                                sum(i * x for i, x in enumerate(a)),
                                sum(i * x if i % 2 else -i * x for i, x in enumerate(a)))]
    return _case_verdict("deg8-ergodic-p3", "deg8", selector, a)


def _p3_series_verdict(kind: str, series: CoefficientSeries) -> CriterionVerdict:
    """The ergbm (Mahler) or ergbm2 (van der Put) table on the normalized
    terms c_n = t_n / 3^e(n) mod 9 of the first nine terms, with selector
    c_0..c_5 mod 3: refused by normalization where 3 does not divide one of
    t_3..t_8, and outside the differentiable-mod-3 class unless 3 divides
    c_6, c_7 and c_8 (Mahler) or c_{m+3} = 2 c_m mod 3 for m = 3..5 (van
    der Put)."""
    name, depth = f"{kind}-ergodic-p3", series.exponent
    t = _criterion_terms(kind, 3, 9, series).tolist()
    for i in range(3, 9):
        if t[i] % 3:
            witness = {"error": str(series.normalization_error(i))}
            return failing(name, "normalization", witness=witness, depth=depth)
    c = [x % 9 for x in t[:3]] + [x // 3 % 9 for x in t[3:]]
    if kind == "mahler":
        outside = any(x % 3 for x in c[6:]) and {"c6": c[6], "c7": c[7], "c8": c[8]}
    else:
        m = next((m for m in (3, 4, 5) if (c[m + 3] - 2 * c[m]) % 3), None)
        outside = m is not None and {"m": m, "b_m": c[m], "b_m3": c[m + 3]}
    if outside:
        return failing(name, "ud1-precondition", witness=outside, depth=depth)
    return _case_verdict(name, "ergbm" if kind == "mahler" else "ergbm2",
                         [x % 3 for x in c[:6]], c)


def mahler_ergodic_p3(series: CoefficientSeries) -> CriterionVerdict:
    """Ergodicity on Z_3 from Mahler terms, on the ergbm table."""
    return _p3_series_verdict("mahler", series)


def vdp_ergodic_p3(series: CoefficientSeries) -> CriterionVerdict:
    """Ergodicity on Z_3 from van der Put terms, on the ergbm2 table."""
    return _p3_series_verdict("vdp", series)


# ---------------------------------------------------------------------
# p >= 5
# ---------------------------------------------------------------------


def _validate_phi(p: int, phi: Sequence[int]) -> tuple[int, ...]:
    phi = tuple(x % p for x in parse_ints(phi))
    if len(phi) != p:
        raise InputError(f"phi must list {p} values")
    if sorted(phi) != list(range(p)):
        raise InputError("phi must be a permutation of 0..p-1")
    x = 0
    for _ in range(p - 1):  # a permutation whose orbit of 0 is all of 0..p-1
        x = phi[x]
        if x == 0:
            raise InputError("phi must be a single p-cycle")
    return phi


def _validate_bvec(p: int, bvec: Sequence[int]) -> tuple[int, ...]:
    bvec = tuple(x % p for x in parse_ints(bvec))
    if len(bvec) != p:
        raise InputError(f"bvec must list {p} values")
    if any(v == 0 for v in bvec):
        raise InputError("bvec entries must be units mod p")
    if math.prod(bvec) % p != 1:
        raise InputError("bvec must have product 1 mod p")
    return bvec


@dataclass(frozen=True)
class P5Instance:
    prime: int
    phi: tuple[int, ...]
    bvec: tuple[int, ...]
    lift: tuple[int, ...]
    series: CoefficientSeries
    function: PadicFunction
    conditions: dict

    @property
    def passed(self) -> bool:
        return self.conditions["combined"].passed

    def to_json_dict(self) -> dict:
        return {
            "p": self.prime,
            "phi": [str(x) for x in self.phi],
            "bvec": [str(x) for x in self.bvec],
            "lift": [str(x) for x in self.lift],
            "series": self.series.to_json_dict(),
            "conditions": {k: v.to_json_dict() for k, v in self.conditions.items()},
            "pass": self.passed,
        }


def p5_conditions(f: PadicFunction) -> dict:
    """The three-part criterion for p >= 5: transitivity mod p, unit branch
    product, and v_p(f^p(0)) = 1; refused for a map that is not 1-Lipschitz."""
    p = f.prime
    if p < 5:
        raise InputError("p5_conditions needs p >= 5")
    if f.depth < 2:
        raise InputError("need depth >= 2")
    out = {}
    out["transitive_mod_p"] = transitive_mod(f, 1)
    prod = math.prod((f.vdp_window.normals(p, 2 * p) % p).tolist()) % p
    out["branch_product"] = (
        passing("branch-product-unit", product=prod)
        if prod == 1
        else failing("branch-product-unit", "not-one", witness={"product": prod})
    )
    y = int(f.orbit_mod(2)[p])
    out["return_valuation"] = (
        passing("return-valuation", value=y)
        if y % p == 0 and y != 0
        else failing("return-valuation", "not-exactly-p", witness={"value": y})
    )
    ok = all(v.passed for v in out.values())
    out["combined"] = CriterionVerdict(ok, "ergodic-p5", None if ok else "see-parts")
    return out


def p5_instance(p: int, phi: Sequence[int], bvec: Sequence[int],
                lift: Sequence[int] | None = None) -> P5Instance:
    """Build a function with prescribed level-1 data.

    phi fixes the reduction mod p, bvec the branch residues; lift adds
    p * z_m to each Mahler residue (only z_0..z_{p-1} can influence the
    outcome mod p^2).  The resulting finite Mahler sum is automatically in
    the differentiable class, and phi and bvec are re-extracted from the
    built function and cross-checked.
    """
    require_prime(p)
    if p < 5:
        raise InputError("p5_instance needs p >= 5")
    phi = _validate_phi(p, phi)
    bvec = _validate_bvec(p, bvec)
    lift = (0,) * (2 * p) if lift is None else tuple(x % p for x in parse_ints(lift))
    if len(lift) != 2 * p:
        raise InputError(f"lift must list {2 * p} values")
    # the Mahler residues mod p of phi, then of b_i - lambda_i . e_base, since
    # b_i = sum_n lambda(i, n) e_n + sum_{n<=i} C(i, n) e_{p+n} mod p
    e_base = mahler_batch([phi], p)[0]
    lam = lambda_rows(p)[0]
    e = np.append(e_base, mahler_batch([(np.array(bvec) - lam @ e_base) % p], p)[0]).tolist()
    terms = [(p if m >= p else 1) * (e[m] + p * lift[m]) for m in range(2 * p)]
    series = CoefficientSeries("mahler", p, 3, tuple(terms))
    f = PadicFunction.from_mahler(series)
    branch = (f.vdp_window.normals(p, 2 * p) % p).tolist()
    for i in range(p):
        if f.evaluate(i, 1) != phi[i]:
            raise InternalCheckError(f"instance missed phi at {i}")
        if branch[i] != bvec[i]:
            raise InternalCheckError(f"instance missed branch residue at {i}")
    return P5Instance(p, phi, bvec, lift, series, f, p5_conditions(f))


def _mahler_derivative_residues(terms: Sequence[int], xs: Sequence[int], p: int) -> list[int]:
    """Formal derivative of a finite Mahler sum at each integer of xs, mod p.

    D = log(1 + Delta) gives L f'(x) = sum_j v_j C(x, j), with L = lcm(1..n-1)
    for n terms and v_j = sum_{k>=1} (-1)^(k-1) (L / k) a_{j+k}.  With p^s the
    power of p in L (s <= 1 for n < p^2), this is computed mod p^(s+1); each
    value is checked for p left in its denominator.
    """
    n = len(terms)
    lcm = math.lcm(*range(1, n))
    scale = math.gcd(lcm, p**n)  # p^s
    v = [sum((-1) ** (k - 1) * (lcm // k) * int(terms[j + k]) for k in range(1, n - j))
         % (scale * p) for j in range(n - 1)]
    unit = inverse_mod(lcm // scale % p, p)
    out = []
    for x in xs:
        acc = sum(c * math.comb(x, j) for j, c in enumerate(v[: x + 1])) % (scale * p)
        if acc % scale:
            raise InternalCheckError("derivative residue has p in the denominator")
        out.append(acc // scale * unit % p)
    return out


def p5_linear_form(p: int, phi: Sequence[int], bvec: Sequence[int], lift: Sequence[int]) -> dict:
    """Predict the return valuation of a lifted instance without iterating.

    With g the unlifted instance and x_j its orbit of 0 mod p, the residue
    l = g^p(0)/p + z_0 / g'(0) + sum_{i=1}^{p-1} w_i g_1(x_i) mod p,
    w_i the tail products of derivative residues, equals f^p(0)/p mod p for
    the lifted f.  Ergodicity of f is then equivalent to l != 0 together
    with the two level-1 conditions.  Derivative residues are computed both
    from branch terms and from the formal derivative, and must agree, as
    must the form and the residue of the lifted f's own orbit.  The
    form reads g mod p^2 only, where the lift adds p z_m to a_m for m < p and
    nothing else: g is built from the lifted series at that precision.
    """
    lifted = p5_instance(p, phi, bvec, lift)
    lift, a = lifted.lift, lifted.series.term_list
    g0 = PadicFunction.from_mahler(CoefficientSeries(
        "mahler", p, 2, [t - p * z for t, z in zip(a[:p], lift)] + list(a[p:])
    ))

    orbit = g0.orbit_mod(1)[:p].tolist()
    branch = (g0.vdp_window.normals(p, 2 * p) % p).tolist()
    deriv = [branch[x] for x in orbit]
    formal = _mahler_derivative_residues(g0.payload.term_list, orbit, p)
    for x, via_branch, via_formal in zip(orbit, deriv, formal):
        if via_branch != via_formal:
            raise InternalCheckError(
                f"derivative routes disagree at x={x}: {via_branch} vs {via_formal}"
            )

    y = int(g0.orbit_mod(2)[p])
    if y % p != 0:
        raise InternalCheckError("base instance does not return to 0 mod p")
    first = (y // p) % p

    g1 = [sum(lift[m] * binomial(x, m) for m in range(p)) % p for x in orbit]
    total, w = first + g1[0] * inverse_mod(deriv[0], p), 1
    for i in range(p - 1, 0, -1):  # w = w_i, the product of deriv[i+1..p-1]
        total += w * g1[i]
        w = w * deriv[i] % p
    total %= p

    yd = int(lifted.function.orbit_mod(2)[p])  # f^p(0) mod p^2
    direct = (yd // p) % p if yd % p == 0 else None
    if total != direct:
        raise InternalCheckError("linear form missed the return residue")
    return {"formula": total, "direct": direct, "agree": True, "instance": lifted}


# power-basis route: solve for polynomial coefficients from reduced data


def solve_power_basis_system(p: int, phi: Sequence[int],
                             Dvec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients alpha_0..alpha_{2p-1} mod p of a polynomial that takes
    the values phi and whose derivative takes the values D at k = 0..p-1,
    with its reduction B_0..B_{p-1} mod (x^p - x, p): alphas = R + (x^p - x) Q
    with R through phi and Q through R'(k) - D_k, as alphas' derivative at k
    is R'(k) - Q(k) mod p."""
    require_prime(p)
    if p < 5:
        raise InputError("solve_power_basis_system needs p >= 5")
    phi, Dvec = ([x % p for x in parse_ints(v)] for v in (phi, Dvec))
    if len(phi) != p or len(Dvec) != p:
        raise InputError("phi and Dvec must each list p values")
    ks = np.arange(p)
    powers = np.array([[pow(k, e, p) for k in range(p)] for e in range(p)])  # k^e, 0^0 = 1
    # through the values v at k = 0..p-1: the indicator of k is 1 - (x - k)^(p-1)
    # = 1 - sum_j k^(p-1-j) x^j at odd p, so c_0 = v_0, c_j = -sum_k v_k k^(p-1-j)
    interpolate = -powers[::-1] % p
    interpolate[0] = ks == 0
    R = interpolate @ phi % p
    slopes = (ks[1:] * R[1:]) @ powers[:-1]  # R'(k)
    Q = interpolate @ ((slopes - Dvec) % p) % p
    alphas = tuple(((np.concatenate((R, Q)) - np.pad(Q, (1, p - 1))) % p).tolist())
    # x^i reduces to x^(i - (p-1)) for i >= p: B_j collects alpha_j and
    # alpha_{p+j-1}, and B_1 also alpha_{2p-1}
    B = [alphas[0], alphas[1] + alphas[p] + alphas[-1]]
    B = tuple(b % p for b in B + [alphas[j] + alphas[p + j - 1] for j in range(2, p)])
    # independent validation by Horner's rule: the reduced form takes the
    # values phi, and the derivative of alphas the values D, at k = 0..p-1
    for k in range(p):
        value = slope = 0
        for b in reversed(B):
            value = (value * k + b) % p
        for i in range(2 * p - 1, 0, -1):
            slope = (slope * k + i * alphas[i]) % p
        if (value, slope) != (phi[k], Dvec[k]):
            raise InternalCheckError(f"power-basis solve misses phi or D at k={k}")
    return alphas, B


def random_transitive_permutation(p: int, rng) -> tuple[int, ...]:
    """Uniform single p-cycle on 0..p-1, as a value list."""
    order = list(range(1, p))
    rng.shuffle(order)
    cycle = [0] + order
    phi = [0] * p
    for i in range(p):
        phi[cycle[i]] = cycle[(i + 1) % p]
    return tuple(phi)


def random_unit_product_one(p: int, rng) -> tuple[int, ...]:
    """Uniform vector of p units mod p whose product is 1."""
    vec = [rng.randrange(1, p) for _ in range(p - 1)]
    return tuple(vec + [inverse_mod(math.prod(vec) % p, p)])


def random_power_basis_poly(p: int, rng) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Random degree < 2p polynomial hitting a transitive reduction and a
    unit-product derivative profile; returns (alphas, Bvec, Dvec)."""
    phi = random_transitive_permutation(p, rng)
    Dvec = random_unit_product_one(p, rng)
    return *solve_power_basis_system(p, phi, Dvec), Dvec


# ---------------------------------------------------------------------
# counterexample catalog and dispatch
# ---------------------------------------------------------------------


def counterexample_catalog() -> tuple[dict, ...]:
    """Transitive-but-not-ergodic witnesses pinning the decision thresholds."""
    return (
        {
            "p": 2,
            "coeffs": (1, 3, 0, 2),
            "transitive_level": 2,
            "failing_level": 3,
            "orbit": (0, 1, 2, 3),
        },
        {
            "p": 3,
            "coeffs": (1, 4, 0, 4, 0, 2),
            "transitive_level": 2,
            "failing_level": 3,
            "orbit": (0, 1, 2, 6, 7, 5, 3, 4, 8),
        },
        {
            "p": 5,
            "coeffs": (1, 0, 0, 0, 0, 1),
            "transitive_level": 1,
            "failing_level": 2,
            "orbit": (0, 1, 2, 3, 4),
            "orbit_at_failing_level": (0, 1, 2, 8, 19),
        },
    )


def power_counterexample(p: int) -> PadicFunction:
    """x^p + 1 at depth 2: transitive mod p but never mod p^2."""
    require_prime(p)
    return PadicFunction.from_polynomial([1] + [0] * (p - 1) + [1], p, 2)


def closed_form_ergodic(f: PadicFunction) -> ErgodicityDecision:
    """Coefficient-criterion ergodicity decision for the prime at hand.

    For p in {2, 3} both the Mahler-side and van der Put-side criteria are
    evaluated and must agree; for p >= 5 the three-condition criterion is
    used.  The input must be in the differentiable-mod-p class.
    """
    p = f.prime
    require_ud1(f, "closed-form-ergodic")
    # p: (terms read, Mahler criterion, van der Put criterion, the criterion on
    # the coefficients of a polynomial of at most that many, its evidence key)
    forms = {
        2: (4, mahler_ergodic_p2, vdp_ergodic_p2, larin_transitive_mod8, "cubic"),
        3: (9, mahler_ergodic_p3, vdp_ergodic_p3, deg8_minimal_p3, "deg8"),
    }
    evidence = {}
    if p in forms:
        count, mahler, vdp, polynomial, key = forms[p]
        if f.depth < transitivity_threshold(p):
            raise InputError(f"need depth >= 3 for the p={p} criteria")
        evidence["mahler"] = mahler(mahler_coefficients(f, count=count, k=3))
        evidence["vdp"] = vdp(vdp_coefficients(f, count=count, k=3))
        if f.kind == "polynomial" and len(f.payload) <= count:
            evidence[key] = polynomial(f.payload)
        require_agreement("ergodicity", *evidence.values())
        ergodic = evidence["mahler"].passed
    else:
        conditions = p5_conditions(f)
        evidence.update({k: v for k, v in conditions.items() if k != "combined"})
        ergodic = conditions["combined"].passed
    return ErgodicityDecision(p, ergodic, "closed-form", "Z_p", evidence)
