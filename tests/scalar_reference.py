"""Scalar reference oracles for the array value core.

These are the point-by-point computations the package used before its
series, the direct UD1 sweep and its orbit walks were derived from one
value array (the literal array sweep over every (u, s, h) that came next,
before the sweep decided by h = 1 checks, is kept here too), before
transitivity and the escape residues were read from one cached walk of 0,
before the level products of the ergodicity conditions were counted per
residue, before the lambda form came from Pascal rows mod p
(its exact coefficients are kept here), before the formal derivative of a Mahler sum was converted to
the power basis once for all points, and before the coefficient routes,
Larin's cubic criterion and the p = 3 case tables became mask passes over a
term array: every value comes from
`PadicFunction.evaluate`, from exact rationals or from one term at a time
(`CoefficientSeries.term`, and `normalized` with `floor_log` below, which
the package's `CoefficientSeries.normals` replaced), every loop is plain
Python.
They are slow on purpose and serve only as independent references in
tests.

The identity suites valpro, abc, pzero and bip2 keep their scalar sweeps
here too, before they became int8 chunked prefix sums, one product per
prime and one Pascal table mod 4. Each returns (checked,
counterexamples). The first three read the prime list, `math.comb` and
valpro's claimed valuation through the same names the package does, so a
test that perturbs one of those perturbs both sides alike; bip2's takes
its binomial as an argument, so that a test can perturb the same (n, k)
there and in the package's table. The bipro scan keeps its row-by-row
lockstep loop, which reads its taps through `backends.comb` as the
blocked scan does.

Last come the references and samplers that only tests use: the p-adic
valuation with its INFINITY at 0, Legendre's
digit-sum valuation of a binomial, the exact double sums behind abc and
pzero, the ball indicator, the Mahler coefficients of the ball indicator
and the van der Put to Mahler conversion built on them, the definition-level 1-Lipschitz test, the
Mahler valuation profile of a UD1 map with its uniform sampler, a random
prescribed p >= 5 instance with the Pascal forward substitution that solved
for its Mahler residues before `backends.mahler_batch` gave them, the
power-basis solve in its two steps (interpolate the reduction, then solve
for the coefficients) from before it became one system, and transitivity
of a batch of polynomials.
"""

import math
from fractions import Fraction
from importlib import resources

import numpy as np

from padicdyn import backends, criteria, identities
from padicdyn.analysis import UD1Report
from padicdyn.arith import (
    inverse_mod, m_minus, p_digits, require_nonnegative, require_prime, solve_fp,
)
from padicdyn.dynamics import cycle_structure
from padicdyn.errors import InputError, InternalCheckError, NormalizationError
from padicdyn.funcspace import CoefficientSeries, PadicFunction
from padicdyn.verdict import CriterionVerdict, failing, passing


def floor_log(m: int, p: int) -> int:
    """Exponent e(m) of the leading base-p digit of m, with e(0) = 0."""
    require_prime(p)
    require_nonnegative(m, "m")
    e = 0
    while m >= p:
        m //= p
        e += 1
    return e


def normalized(series: CoefficientSeries, i: int, exponent: int | None = None) -> int:
    """Term i divided by p^e(i), as a residue mod p^exponent, by default
    mod p^(series.exponent - e(i)).

    Raises NormalizationError when the stored term is not divisible by
    p^e(i), and InputError when more precision is requested than the
    series carries.
    """
    e = floor_log(i, series.prime)
    avail = series.exponent - e
    if avail < 1:
        raise InputError(f"term {i} has no residual precision at exponent {series.exponent}")
    if exponent is None:
        exponent = avail
    elif exponent > avail:
        raise InputError(f"requested precision p^{exponent} for term {i}, only p^{avail} known")
    t = series.term(i)
    if t % series.prime**e != 0:
        raise NormalizationError(
            f"{series.kind} term {i} = {t} is not divisible by {series.prime}^{e}"
        )
    return (t // series.prime**e) % series.prime**exponent


def mahler_reference(f: PadicFunction, count: int, k: int) -> CoefficientSeries:
    """a_n by iterated forward differences of f(0), f(1), ..., mod p^k."""
    mod = f.prime**k
    diffs = [f.evaluate(x, k) for x in range(count)]
    out = []
    for _ in range(count):
        out.append(diffs[0])
        diffs = [(diffs[i + 1] - diffs[i]) % mod for i in range(len(diffs) - 1)]
    return CoefficientSeries("mahler", f.prime, k, tuple(out))


def vdp_reference(f: PadicFunction, count: int, k: int) -> CoefficientSeries:
    """B_m = f(m) for m < p, else f(m) - f(m^-), mod p^k."""
    p = f.prime
    out = []
    for m in range(count):
        if m < p:
            out.append(f.evaluate(m, k))
        else:
            out.append(f.evaluate(m, k) - f.evaluate(m_minus(m, p), k))
    return CoefficientSeries("vdp", p, k, tuple(out))


def ud1_reference(f: PadicFunction) -> UD1Report:
    """The direct UD1 definition sweep, one point at a time: integrality of
    f(u + p) - f(u) for every u first, then every (u, s, h) with
    s = 1..depth-1 in u-major, then s, then h order."""
    s_max = f.depth - 1
    p = f.prime
    window = p**f.depth
    derived = []
    for u in range(window):
        base = f.evaluate(u)
        diff = f.evaluate(u + p) - base
        if diff % p != 0:
            return UD1Report(
                failing(
                    "ud1-direct",
                    "derivative-integrality",
                    witness={"u": u, "difference": diff % window},
                    depth=f.depth,
                ),
                None,
            )
        derived.append((diff // p) % p)
    for u in range(window):
        base = f.evaluate(u)
        d = derived[u]
        for s in range(1, s_max + 1):
            mod = p ** (s + 1)
            step = p**s
            for h in range(1, p):
                lhs = f.evaluate(u + step * h) % mod
                rhs = (base + step * h * d) % mod
                if lhs != rhs:
                    return UD1Report(
                        failing(
                            "ud1-direct",
                            "congruence",
                            witness={"u": u, "s": s, "h": h, "lhs": lhs, "rhs": rhs},
                            depth=f.depth,
                        ),
                        np.array(derived),
                    )
    return UD1Report(passing("ud1-direct", depth=f.depth, s_max=s_max), np.array(derived))


def ud1_table_scan_reference(values: np.ndarray, p: int, depth: int):
    """The literal array sweep that `backends.ud1_table_scan` ran before it
    decided by h = 1 checks: integrality of f(u + p) - f(u) for every
    u < p^depth, then every (s, h) over every u, each pair after a failure
    only below the failing u found so far.  Returns (first, derived) as the
    kernel does."""
    size = p**depth
    window = values[:size]
    diff = (values[p : p + size] - window) % size
    broken = diff % p != 0
    if broken.any():
        return (int(broken.argmax()), 0, 0), None
    derived = (diff // p) % p
    first, stop = None, size
    for s in range(1, depth):
        mod = p ** (s + 1)
        for h in range(1, p):
            shift = p**s * h
            rhs = (window[:stop] + shift * derived[:stop]) % mod
            bad = values[shift : shift + stop] % mod != rhs
            if bad.any():
                stop = int(bad.argmax())
                first = (stop, s, h)
    return first, derived


def orbit_reference(f: PadicFunction, k: int) -> tuple[int, ...]:
    """Forward orbit of 0 mod p^k, one `evaluate` per step, up to (and
    excluding) the first repeat."""
    seen = set()
    orbit = []
    x = 0
    while x not in seen:
        seen.add(x)
        orbit.append(x)
        x = f.evaluate(x, k)
    return tuple(orbit)


def orbit_residues_reference(f: PadicFunction, s_max: int) -> list[int]:
    """f^(p^s)(0) mod p^(s+1) for s = 1..s_max, each walked with `evaluate`
    at level s + 1."""
    out = []
    for s in range(1, s_max + 1):
        y = 0
        for _ in range(f.prime**s):
            y = f.evaluate(y, s + 1)
        out.append(y)
    return out


def transitive_reference(f: PadicFunction, k: int) -> CriterionVerdict:
    """Transitivity mod p^k read from the full cycle decomposition, as
    `transitive_mod` built it before it read the cached walk."""
    report = cycle_structure(f, k)
    if report.transitive:
        return passing("transitive-mod", depth=k, cycle_length=report.size)
    if not report.is_permutation:
        return failing("transitive-mod", "not-bijective", witness=report.collision, depth=k)
    return failing(
        "transitive-mod",
        "multiple-cycles",
        witness={"cycle_count": len(report.cycles),
                 "orbit_of_zero_length": len(report.cycles[0])},
        depth=k,
    )


def transitive_scan_reference(tables) -> np.ndarray:
    """`backends.transitive_scan` as one gather per step: the first return
    of 0 to 0 of each row, in lockstep over the rows."""
    tables = np.asarray(tables, dtype=np.int64)
    count, size = tables.shape
    x = np.zeros(count, dtype=np.int64)
    first_return = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    for step in range(1, size + 1):
        x = tables[rows, x]
        hit = (x == 0) & (first_return == 0)
        first_return[hit] = step
    return (first_return == size).astype(np.uint8)


def branch_products_reference(series: CoefficientSeries, s_max: int) -> list[int]:
    """The level products of `ergodic_conditions`: prod over j < p^s of the
    normalized vdp term j + p^s mod p, for s = 1..s_max, one term at a time;
    `normalized` raises at the first term it refuses."""
    p = series.prime
    out = []
    for s in range(1, s_max + 1):
        acc = 1
        for j in range(p**s):
            acc = acc * normalized(series, j + p**s, 1) % p
        out.append(acc)
    return out


def lambda_coefficient(i: int, n: int, p: int) -> int:
    """(C(i+p, n) - C(i, n)) / p, exactly; integrality is a Lucas consequence."""
    num = math.comb(i + p, n) - math.comb(i, n)
    if num % p != 0:
        raise InternalCheckError(f"lambda coefficient not integral at i={i}, n={n}, p={p}")
    return num // p


def mahler_derivative_residue_reference(terms, x: int, p: int) -> int:
    """Formal derivative of a finite Mahler sum at one integer, mod p.

    The sum is converted to the power basis over exact rationals for this
    one point; the denominators are prime to p for the lengths used here
    (< 2p).
    """
    coeffs: list[Fraction] = [Fraction(0)] * (len(terms) + 1)
    binom_poly = [Fraction(1)]  # C(x, 0)
    for m, a in enumerate(terms):
        if m > 0:
            # C(x, m) = C(x, m-1) * (x - m + 1) / m
            new = [Fraction(0)] * (len(binom_poly) + 1)
            for i, coef in enumerate(binom_poly):
                new[i + 1] += coef / m
                new[i] += coef * Fraction(-(m - 1), m)
            binom_poly = new
        for i, coef in enumerate(binom_poly):
            coeffs[i] += a * coef
    value = Fraction(0)
    for i in range(1, len(coeffs)):
        value += i * coeffs[i] * x ** (i - 1)
    if value.denominator % p == 0:
        raise InternalCheckError("derivative residue has p in the denominator")
    return value.numerator * inverse_mod(value.denominator % p, p) % p


# -- coefficient routes, one term at a time --------------------------


def normals_reference(series: CoefficientSeries, start: int, stop: int) -> list[int]:
    return [normalized(series, i) for i in range(start, stop)]


def lipschitz_reference(series: CoefficientSeries):
    """v_p(term_i) >= min(e(i), k) for every i, first failure reported."""
    p = series.prime
    name = f"lipschitz-{series.kind}"
    e, next_power = 0, p  # e(i), with p^e(i) <= i < next_power
    for i in range(len(series)):
        t = series.term(i)
        if i == next_power:
            e, next_power = e + 1, next_power * p
        need = min(e, series.exponent)
        if t % p**need != 0:
            return failing(
                name,
                "coefficient-valuation",
                witness={"index": i, "term": t, "required_valuation": need},
                depth=series.exponent,
            )
    return passing(name, depth=series.exponent, checked_terms=len(series))


def vdp_relations_reference(series: CoefficientSeries, s_max: int):
    """The van der Put relation route at levels 1..s_max, in (s, r) order and,
    per pair, normalization, level-linearity for each l, then cross-level."""
    p = series.prime
    name = "ud1-vdp-relations"
    for s in range(1, s_max + 1):
        mod = p ** (s + 1)
        step = p**s
        for r in range(step):
            try:
                ref_norm = normalized(series, r + step, 1)
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
                base_norm = normalized(series, (r % p) + p, 1)
                if ref_norm != base_norm:
                    return failing(
                        name,
                        "cross-level",
                        witness={"r": r, "s": s,
                                 "normalized": ref_norm, "base": base_norm},
                        depth=series.exponent,
                    )
    return passing(name, depth=series.exponent, s_max=s_max)


def mahler_predicate_reference(series: CoefficientSeries):
    """v_p(a_n) >= e(n) + 1 where the leading digit is >= 2 (odd p) or
    e(n) >= 2, else >= e(n); indices below p are free."""
    p = series.prime
    name = "ud1-mahler-predicate"
    s, power = 0, 1  # p^s <= n < p^(s+1)
    for n in range(len(series)):
        term = series.term(n)
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


def measure_preserving_reference(series: CoefficientSeries, s_max: int):
    """Complete residues at level 0, then distinct nonzero branch residues for
    each base k at levels 1..s_max; `normalized` raises on the way."""
    p = series.prime
    name = "measure-preserving-vdp"
    base = sorted(normalized(series, m, 1) for m in range(p))
    if base != list(range(p)):
        return failing(
            name,
            "complete-residues",
            witness={"residues": [normalized(series, m, 1) for m in range(p)]},
            depth=series.exponent,
        )
    for s in range(1, s_max + 1):
        step = p**s
        for k in range(step):
            residues = [normalized(series, k + ell * step, 1) for ell in range(1, p)]
            if 0 in residues or len(set(residues)) != p - 1:
                return failing(
                    name,
                    "branch-residues",
                    witness={"s": s, "k": k, "residues": residues},
                    depth=series.exponent,
                )
    return passing(name, depth=series.exponent, s_max=s_max)


def derived_mismatch_reference(derived, vdp: CoefficientSeries):
    """The first u where d(u) differs from the normalized branch term of its
    class, or None, u by u, each branch normalized when its class is first
    met."""
    branch: dict[int, int] = {}  # residue class r -> normalized B_{r+p}
    for u, d in enumerate(derived):
        r = u % vdp.prime
        if r not in branch:
            branch[r] = normalized(vdp, r + vdp.prime, 1)
        if d != branch[r]:
            return u
    return None


def larin_transitive_mod8_reference(coeffs):
    """Larin's cubic criterion on (d, c, b, a), one condition at a time."""
    coeffs = tuple(int(x) for x in coeffs)
    if len(coeffs) > 4:
        raise InputError("larin_transitive_mod8 expects a cubic (4 coefficients)")
    d, c, b, a = (coeffs + (0, 0, 0, 0))[:4]
    for label, got, want in (("a-mod4", a % 4, 0), ("b-mod2", b % 2, 0),
                             ("b+c-mod4", (b + c) % 4, 1), ("d-mod2", d % 2, 1)):
        if got != want:
            return failing("cubic-ergodic-p2", label, witness={"value": got, "expected": want})
    return passing("cubic-ergodic-p2")


def mahler_ergodic_p2_reference(series: CoefficientSeries):
    name = "mahler-ergodic-p2"
    for label, idx, mod, want in (("a0-mod2", 0, 2, 1), ("a1-mod4", 1, 4, 1),
                                  ("a2-mod4", 2, 4, 0), ("a3-mod8", 3, 8, 0)):
        got = series.term(idx) % mod
        if got != want:
            return failing(name, label, witness={"value": got, "expected": want},
                           depth=series.exponent)
    return passing(name, depth=series.exponent)


def vdp_ergodic_p2_reference(series: CoefficientSeries):
    name = "vdp-ergodic-p2"
    try:
        b = [normalized(series, m, 2) for m in range(4)]
    except NormalizationError as exc:
        return failing(name, "normalization", witness={"error": str(exc)},
                       depth=series.exponent)
    checks = [
        ("b0-mod2", b[0] % 2, 1),
        ("b0+b1-mod4", (b[0] + b[1]) % 4, 3),
        ("b2-mod2", b[2] % 2, 1),
        ("b2+b3-mod4", (b[2] + b[3]) % 4, 2),
    ]
    for label, got, want in checks:
        if got != want:
            return failing(name, label, witness={"value": got, "expected": want},
                           depth=series.exponent)
    return passing(name, depth=series.exponent)


def case_table_reference(kind: str, row):
    """A p = 3 criterion on one row, one check, one case and one condition at
    a time: kind "deg8" on polynomial coefficients, "mahler" or "vdp" on a
    series of that kind."""
    name = f"{kind}-ergodic-p3"
    if kind == "deg8":
        if len(row) > 9:
            raise InputError("deg8_minimal_p3 expects at most 9 coefficients")
        a = [int(x) for x in row] + [0] * (9 - len(row))
        selector = [x % 3 for x in (a[0], sum(a[1::2]), sum(a[2::2]), a[1],
                                    sum(i * x for i, x in enumerate(a)),
                                    sum(i * x * (1 if i % 2 else -1) for i, x in enumerate(a)))]
        variables = [x % 9 for x in a]
    else:
        if row.kind != kind or row.prime != 3:
            raise InputError(f"{kind}_ergodic_p3 expects a {kind} series over p=3")
        if len(row) < 9 or row.exponent < 3:
            raise InputError("need at least 9 terms at precision 3^3")
        try:
            variables = c = [normalized(row, i, 2) for i in range(9)]
        except NormalizationError as exc:
            return failing(name, "normalization", witness={"error": str(exc)}, depth=row.exponent)
        for m in (3, 4, 5):
            if kind == "mahler" and c[m + 3] % 3:
                witness = {"c6": c[6], "c7": c[7], "c8": c[8]}
            elif kind == "vdp" and (c[m + 3] - 2 * c[m]) % 3:
                witness = {"m": m, "b_m": c[m], "b_m3": c[m + 3]}
            else:
                continue
            return failing(name, "ud1-precondition", witness=witness, depth=row.exponent)
        selector = [x % 3 for x in c[:6]]
    table = {"deg8": "deg8", "mahler": "ergbm", "vdp": "ergbm2"}[kind]
    cases = resources.files("padicdyn").joinpath("data/ergodic_cases_p3.txt").read_text()
    for line in cases.splitlines():
        if not line.startswith(table + "|"):
            continue
        _, case, keys, *conditions = line.split("|")
        if [int(x) for x in keys.split(",")] == selector:
            for j, condition in enumerate(conditions, start=1):
                const, coefs = condition.split(":")
                value = int(const) + sum(int(k) * x for k, x in zip(coefs.split(","), variables))
                if value % 9 == 0:
                    witness = {"selector": selector, "value": 0}
                    return failing(name, f"case-{case}-cond{j}", witness=witness)
            return passing(name, case=case)
    return failing(name, "no-case", witness={"selector": selector})


def outcome(call, *args):
    """A route's result, or the type and message of what it raised, so that
    a route and its reference can be compared exception for exception."""
    try:
        return call(*args)
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


# -- identity suites, one instance at a time ---------------------------


def valpro_reference(p_max: int, s_max: int):
    """v_p(C(l p^s, j)) = s - v_p(j), the running valuation updated one j at
    a time by trial division; stops at the fifth counterexample."""
    checked = 0
    bad = []
    for p in range(2, p_max + 1):
        if not identities.is_prime(p):
            continue
        for s in range(1, s_max + 1):
            for l in range(1, p):
                n = l * p**s
                v = 0
                for j in range(1, n):
                    num = n - j + 1
                    while num % p == 0:
                        v += 1
                        num //= p
                    den = j
                    vj = 0
                    while den % p == 0:
                        vj += 1
                        den //= p
                    v -= vj
                    checked += 1
                    claim = identities.valpro_claim(s, vj)
                    if v != claim:
                        bad.append(
                            {"p": p, "s": s, "l": l, "j": j, "got": v,
                             "expected": claim}
                        )
                        if len(bad) > 4:
                            return checked, bad
    return checked, bad


def _modular_abc_reference(p: int, comb=math.comb) -> list[tuple[int, int]]:
    """(r, (A+B+C) mod p^2) for r = 1..p-1, via reduced tables of comb."""
    q = p * p
    crow = [[comb(r, t) % q for t in range(r + 1)] for r in range(p)]
    cp = [comb(p, j) % q for j in range(p + 1)]
    out = []
    for r in range(1, p):
        total = 0
        for l in range(1, p):
            sign = 1 if (r - l + 1) % 2 == 0 else -1
            jlo = 1 if l <= r else l - r
            for j in range(jlo, l + 1):
                if 0 <= l - j <= r:
                    total += sign * l * crow[r][l - j] * cp[j]
        for l in range(1, r):
            sign = 1 if (r - l) % 2 == 0 else -1
            for j in range(1, r - l + 1):
                total += sign * l * crow[r][l + j] * cp[j]
        out.append((r, total % q))
    return out


def abc_reference(p_max: int, comb=math.comb):
    checked = 0
    bad = []
    for p in identities._ODD_PRIMES_97:
        if p > p_max:
            break
        for r, residue in _modular_abc_reference(p, comb):
            checked += 1
            if residue != 0:
                bad.append({"p": p, "r": r, "residue": residue})
    return checked, bad


def pzero_reference(p_max: int, comb=math.comb):
    checked = 0
    bad = []
    for p in identities._ODD_PRIMES_97:
        if p > p_max:
            break
        q = p * p
        cp = [comb(p, j) % q for j in range(p + 1)]
        ctab = [[comb(r, t) % q for t in range(r + 1)] for r in range(p)]
        for r in range(2, p):
            total = 0
            for j in range(1, p - r):
                for l in range(j, j + r + 1):
                    sign = 1 if (r - l + 1) % 2 == 0 else -1
                    if 0 <= l - j <= r:
                        total += sign * l * ctab[r][l - j] * cp[j]
            checked += 1
            if total % q != 0:
                bad.append({"p": p, "r": r, "residue": total % q})
    return checked, bad


def bip2_reference(s_max: int, comb=math.comb):
    """The five p = 2 digit-shift congruences mod 4 one (alpha, beta, case)
    at a time, every binomial an exact comb(n, k)."""
    checked = 0
    bad = []
    C = comb
    for s in range(2, s_max + 1):
        h = 2 ** (s - 1)
        f = 2**s
        for a in range(h):
            for b in range(h):
                cases = [
                    ("1", C(a + f, b + h), 2 * C(a, b)),
                    ("2", C(a + f, b + f), C(a, b)),
                    ("3", C(a + h + f, b + h), C(a + h, b + h) + 2 * C(a + h, b)),
                    ("4", C(a + h + f, b + f), C(a + h, b) + 2 * C(a + h, b + h)),
                    ("5", C(a + h + f, b + h + f), C(a + h, b + h)),
                ]
                for tag, lhs, rhs in cases:
                    checked += 1
                    if (lhs - rhs) % 4 != 0:
                        bad.append(
                            {"case": tag, "s": s, "alpha": a, "beta": b,
                             "lhs_mod4": lhs % 4, "rhs_mod4": rhs % 4}
                        )
    return checked, bad


def _pascal_step(row, m: int, q: int) -> None:
    """Advance row C(m, .) mod q to C(m + 1, .) in place; row[m + 1] is 0."""
    row[1 : m + 2] = (row[1 : m + 2] + row[: m + 1]) % q


def bipro_lockstep_reference(p: int, s: int):
    """`backends.bipro_scan` one row at a time: rows C(m, .) and
    C(m + p^s, .) mod p^2 advance in lockstep in int64, and each high row
    is compared with the (p+1)-tap sum over its low row."""
    q = p * p
    ps = p**s
    delta = p ** (s - 1)
    taps = [backends.comb(p, j) % q for j in range(p + 1)]
    low = np.zeros(ps + 1, dtype=np.int64)
    high = np.zeros(2 * ps + 1, dtype=np.int64)
    low[0] = high[0] = 1
    for m in range(ps):
        _pascal_step(high, m, q)
    pairs = 0
    for m in range(ps):
        n = m + ps
        rhs = np.zeros(n + 1, dtype=np.int64)
        for j, tap in enumerate(taps):
            rhs[j * delta : j * delta + m + 1] += tap * low[: m + 1]
        rhs %= q
        pairs += n + 1
        bad = np.flatnonzero(high[: n + 1] != rhs)
        if bad.size:
            k = int(bad[0])
            return pairs, {"n": n, "k": k, "lhs": int(high[k]), "rhs": int(rhs[k])}
        _pascal_step(low, m, q)
        _pascal_step(high, n, q)
    return pairs, None


# -- test-only references and samplers ----------------------------------


class _PlusInfinity:
    """Singleton standing for +infinity in valuation comparisons."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("padicdyn.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _PlusInfinity()


def valuation(n: int, p: int):
    """p-adic valuation of an integer; valuation(0, p) is INFINITY."""
    require_prime(p)
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n must be an integer, got {n!r}")
    if n == 0:
        return INFINITY
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_binomial_valuation(n: int, k: int, p: int):
    """v_p(C(n, k)) from digit sums; INFINITY when the binomial vanishes."""
    if k > n:
        return INFINITY
    return (digit_sum(k, p) + digit_sum(n - k, p) - digit_sum(n, p)) // (p - 1)


def abc_components(p: int, r: int) -> tuple[int, int, int]:
    """The three alternating double sums, as exact integers.

    A runs over l = 1..r, j = 1..l with sign (-1)^(r-l+1) and weight
    l C(r, l-j) C(p, j); B extends l to r+1..p-1 with j = l-r..l;
    C runs over l = 1..r-1, j = 1..r-l with the opposite sign and
    weight l C(r, l+j) C(p, j).
    """
    def sgn(e: int) -> int:
        return 1 if e % 2 == 0 else -1

    A = sum(
        sgn(r - l + 1) * l * math.comb(r, l - j) * math.comb(p, j)
        for l in range(1, r + 1)
        for j in range(1, l + 1)
    )
    B = sum(
        sgn(r - l + 1) * l * math.comb(r, l - j) * math.comb(p, j)
        for l in range(r + 1, p)
        for j in range(l - r, l + 1)
    )
    C = sum(
        sgn(r - l) * l * math.comb(r, l + j) * math.comb(p, j)
        for l in range(1, r)
        for j in range(1, r - l + 1)
    )
    return A, B, C


def pzero_component(p: int, r: int) -> int:
    """Exact value of the complementary double sum, defined for 1 < r <= p-1."""
    return sum(
        (1 if (r - l + 1) % 2 == 0 else -1) * l * math.comb(r, l - j) * math.comb(p, j)
        for j in range(1, p - r)
        for l in range(j, j + r + 1)
    )


def chi(m: int, x: int, p: int) -> int:
    """Indicator of the ball: 1 iff x = m mod p^(e(m)+1)."""
    return 1 if (x - m) % p ** (floor_log(m, p) + 1) == 0 else 0


def indicator_mahler_coefficient(n: int, m: int, p: int) -> int:
    """Exact Mahler coefficient a_n(m) of the indicator chi(m, .).

    a_n(m) = sum over alpha >= 0 of (-1)^(n - m - p^M alpha) C(n, m + p^M alpha)
    with M = e(m) + 1.
    """
    step = p ** (floor_log(m, p) + 1)
    total = 0
    j = m
    while j <= n:
        total += (-1) ** (n - j) * math.comb(n, j)
        j += step
    return total


def vdp_to_mahler(series: CoefficientSeries, count: int | None = None) -> CoefficientSeries:
    """Mahler coefficients of a finite van der Put sum, mod p^k: the sum of
    B_m times the indicator coefficients a_n(m)."""
    if series.kind != "vdp":
        raise InputError("vdp_to_mahler expects a vdp series")
    if count is None:
        count = len(series)
    out = []
    for n in range(count):
        acc = sum(indicator_mahler_coefficient(n, m, series.prime) * series.term_list[m]
                  for m in range(min(n, len(series) - 1) + 1))
        out.append(acc % series.modulus)
    return CoefficientSeries("mahler", series.prime, series.exponent, tuple(out))


def lipschitz_direct_check(f: PadicFunction, k: int | None = None):
    """Definition-level test: f(x + p^s) = f(x) mod p^s for all s < k in the window."""
    if k is None:
        k = f.depth
    if not 1 <= k <= f.depth:
        raise InputError(f"depth {k} outside 1..{f.depth}")
    values = [f.evaluate(x, k) for x in range(f.prime**k)]
    size = len(values)
    for s in range(1, k):
        step = f.prime**s
        mod = step
        for x in range(size - step):
            if (values[x + step] - values[x]) % mod != 0:
                return failing(
                    "lipschitz-direct",
                    "ball-contraction",
                    witness={"x": x, "s": s,
                             "fx": values[x], "fx_shift": values[x + step]},
                    depth=k,
                )
    return passing("lipschitz-direct", depth=k, points=size)


def required_ud1_valuation(n: int, p: int) -> int:
    """Minimal v_p(a_n) the Mahler route demands at index n."""
    if n < p:
        return 0
    digits = p_digits(n, p)
    s = len(digits) - 1
    if s >= 2 or (p > 2 and digits[-1] >= 2):
        return s + 1
    return s


def random_ud1_mahler_series(p: int, depth: int, count: int, rng) -> CoefficientSeries:
    """Uniform sample from the Mahler coefficient vectors admitted by the
    divisibility route, at precision p^depth."""
    mod = p**depth
    terms = []
    for n in range(count):
        r = min(required_ud1_valuation(n, p), depth)
        terms.append(p**r * rng.randrange(mod // p**r))
    return CoefficientSeries("mahler", p, depth, tuple(terms))


def random_p5_instance(p: int, rng, with_lift: bool = True) -> criteria.P5Instance:
    phi = criteria.random_transitive_permutation(p, rng)
    bvec = criteria.random_unit_product_one(p, rng)
    lift = tuple(rng.randrange(p) for _ in range(2 * p)) if with_lift else None
    return criteria.p5_instance(p, phi, bvec, lift)


def p5_series_reference(p: int, phi, bvec, lift) -> CoefficientSeries:
    """The Mahler series of `criteria.p5_instance(p, phi, bvec, lift)` by
    forward substitution down Pascal's triangle: e_0..e_{p-1} from
    sum_{n<=i} C(i, n) e_n = phi(i), then e_p..e_{2p-1} from
    sum_n lambda(i, n) e_n + sum_{n<=i} C(i, n) e_{p+n} = b_i mod p; term m is
    e_m + p z_m, times p from m = p on."""
    e = []
    for i in range(p):
        e.append((phi[i] - sum(math.comb(i, n) * e[n] for n in range(i))) % p)
    for i in range(p):
        lam = sum(lambda_coefficient(i, n, p) * e[n] for n in range(p))
        e.append((bvec[i] - lam - sum(math.comb(i, n) * e[p + n] for n in range(i))) % p)
    terms = [(p if m >= p else 1) * (e[m] + p * lift[m]) for m in range(2 * p)]
    return CoefficientSeries("mahler", p, 3, terms)


def interpolate_reduced_p(p: int, values) -> tuple[int, ...]:
    """Coefficients mod p of the degree < p polynomial through the given
    values at x = 0..p-1 (Vandermonde solve)."""
    values = [int(v) % p for v in values]
    if len(values) != p:
        raise InputError(f"expected {p} values")
    rows = [[pow(x, j, p) for j in range(p)] for x in range(p)]
    result = solve_fp(rows, values, p)
    if result.status != "unique":
        raise InternalCheckError("Vandermonde system not invertible")
    return result.solution


def power_basis_reference(p: int, phi, Dvec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alphas, B) of `criteria.solve_power_basis_system` in two solves: B
    interpolated through phi, then alpha_0..alpha_{2p-1} from the rows that
    fold them into B and the derivative rows at k = 0..p-1."""
    B = interpolate_reduced_p(p, phi)
    n = 2 * p
    rows = [[int(i == 0) for i in range(n)], [int(i in (1, p, n - 1)) for i in range(n)]]
    rows += [[int(i in (j, p + j - 1)) for i in range(n)] for j in range(2, p)]
    rows += [[i * pow(k, i - 1, p) % p if i else 0 for i in range(n)] for k in range(p)]
    result = solve_fp(rows, list(B) + [int(d) % p for d in Dvec], p)
    if result.status != "unique":
        raise InternalCheckError(f"power-basis system is {result.status}")
    return result.solution, B


def batch_transitive_polys(coeffs, p: int, k: int) -> np.ndarray:
    """Transitivity mod p^k for a batch of integer polynomials."""
    mod = p**k
    return backends.transitive_scan(backends.poly_tables(coeffs, mod, mod))
